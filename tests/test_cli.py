"""Command line contract: payload shapes, exit codes, error reporting."""

import io
import json
import subprocess
import sys

import pytest

from qcdense import __version__, primes_below
from qcdense.certify import certify_qc, check_generation, escape_report
from qcdense.circle import phi
from qcdense.cli import main
from qcdense.groups import Torus
from qcdense.nonabelian import builtin_group, certify_qc_with_finite_factor
from qcdense.sequences import from_members, profinite_sequence, solenoid_sequence, torus_sequence
from qcdense.serialize import certificate_to_json, escape_report_to_json, superseq_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out):
    data = json.loads(out)
    assert set(data) == {"header", "payload"}
    assert data["header"]["tool"] == "qcdense"
    assert data["header"]["version"] == __version__
    return data["payload"]


class TestGen:
    def test_torus(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--N", "3")
        assert code == 0
        assert err == ""
        payload = payload_of(out)
        assert payload["group"] == {"kind": "torus"}
        assert payload["members"] == ["1/2", "1/4", "1/6"]
        assert payload["limit"] == "0/1"

    def test_solenoid_shallow(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--group", "solenoid",
            "--primes", "2,3,5", "--n-max", "0", "--N", "1",
        )
        assert code == 0
        payload = payload_of(out)
        assert len(payload["members"]) == 3
        assert [m["r"] for m in payload["members"]] == ["-1/1", "-2/1", "1/2"]

    def test_profinite_with_cap(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--group", "profinite",
            "--primes", "2,3,5", "--n-max", "1", "--m-cap", "2",
        )
        assert code == 0
        payload = payload_of(out)
        assert [m["m"] for m in payload["members"]] == ["1", "2", "4"]

    def test_primes_below(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--group", "profinite",
            "--primes", "below:12", "--n-max", "0",
        )
        assert code == 0
        payload = payload_of(out)
        assert payload["group"]["primes"] == [2, 3, 5, 7, 11]

    def test_empty_sequence_rejected(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--N", "0")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_torus_needs_N(self, capsys):
        code, _, err = run_cli(capsys, "gen")
        assert code == 2
        assert "--N" in json.loads(err)["error"]["message"]

    def test_profinite_needs_primes(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--group", "profinite", "--n-max", "1")
        assert code == 2
        assert "primes" in json.loads(err)["error"]["message"]

    def test_bad_prime_list(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--group", "profinite", "--primes", "2;3", "--n-max", "0"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_bad_primes_below_limit(self, capsys):
        code, out, err = run_cli(
            capsys, "gen", "--group", "profinite", "--primes", "below:x", "--n-max", "0"
        )
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert "below:x" in error["message"]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["certify", "--N", "20", "--bound", "20", "--finite-factor", "A5"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "cert.json"
        assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_text(encoding="utf-8") == out
        assert out.endswith("}\n")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "seq.json"
        code, out, _ = run_cli(capsys, "gen", "--N", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text())
        assert data["payload"]["members"] == ["1/2", "1/4"]


class TestCertify:
    def test_torus_certified(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--N", "100", "--bound", "100")
        assert code == 0
        payload = payload_of(out)
        assert payload["status"] == "certified"
        assert payload["mode"] == "qc"
        assert len(payload["records"]) == 200

    def test_singleton_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--singleton", "1/3", "--bound", "3"
        )
        assert code == 1
        payload = payload_of(out)
        assert payload["status"] == "failed"
        assert payload["failed_character"] == {"kind": "torus", "m": 3}
        assert len(payload["records"]) == 4

    def test_generation_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--singleton", "1/8", "--bound", "1",
            "--mode", "generation",
        )
        assert code == 0
        payload = payload_of(out)
        assert payload["mode"] == "generation"
        assert payload["records"][0]["in_tplus"] is True

    def test_generation_failure(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--singleton", "1/2", "--bound", "2",
            "--mode", "generation",
        )
        assert code == 1
        assert payload_of(out)["failed_character"] == {"kind": "torus", "m": 2}

    def test_profinite(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--group", "profinite",
            "--primes", "2,3,5", "--n-max", "2", "--bound", "6",
        )
        assert code == 0
        payload = payload_of(out)
        assert payload["status"] == "certified"

    def test_solenoid_reproducible(self, capsys):
        args = ["certify", "--group", "solenoid", "--primes", "2,3,5",
                "--n-max", "2", "--N", "6", "--bound", "6"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_finite_factor_perfect(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--N", "20", "--bound", "10",
            "--finite-factor", "A5",
        )
        assert code == 0
        payload = payload_of(out)
        assert payload["group"]["kind"] == "product_with_finite"
        assert len(payload["records"]) == 20

    def test_finite_factor_nonperfect(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--N", "20", "--bound", "10",
            "--finite-factor", "S3",
        )
        assert code == 1
        payload = payload_of(out)
        assert payload["records"] == []
        failed = payload["failed_character"]
        assert failed["components"][1]["kind"] == "finite_abelian"

    def test_finite_factor_rejects_generation(self, capsys):
        code, out, err = run_cli(
            capsys, "certify", "--N", "100", "--bound", "50",
            "--mode", "generation", "--finite-factor", "A5",
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_bound_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--N", "5", "--bound", "0")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_unsupported_bound(self, capsys):
        code, _, err = run_cli(
            capsys, "certify", "--group", "profinite",
            "--primes", "2,3,5", "--n-max", "2", "--bound", "7",
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UnsupportedBound"

    def test_singleton_needs_torus(self, capsys):
        code, _, err = run_cli(
            capsys, "certify", "--group", "profinite", "--primes", "2,3",
            "--n-max", "0", "--singleton", "1/3", "--bound", "2",
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_bound_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--N", "5"])
        assert exc.value.code == 2


class TestFamilyOptions:
    """Options the chosen sequence family does not read are rejected."""

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (("gen", "--group", "torus", "--N", "3", "--primes", "2,3", "--m-cap", "5"),
             "--primes, --m-cap"),
            (("gen", "--group", "profinite", "--primes", "2,3", "--n-max", "1", "--N", "7"),
             "--N"),
            (("certify", "--singleton", "1/8", "--N", "5", "--bound", "1",
              "--mode", "generation"), "--N"),
            (("gen", "--N", "3", "--n-max", "2"), "--n-max"),
        ],
        ids=["torus-primes-m-cap", "profinite-N", "singleton-N", "torus-n-max"],
    )
    def test_unused_family_option_rejected(self, capsys, argv, flags):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"].endswith(f"do not use {flags}")


class TestReport:
    def test_escapes_at_level_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--group", "profinite",
            "--primes", "2,3,5", "--n-max", "2", "--wn", "1",
        )
        assert code == 0
        payload = payload_of(out)
        assert payload["count"] == 1
        assert payload["members"] == [{"type": "int_point", "m": "1"}]
        assert payload["stable"] is True

    def test_level_zero_is_empty(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--group", "profinite",
            "--primes", "2,3,5", "--n-max", "2", "--wn", "0",
        )
        assert code == 0
        assert payload_of(out)["count"] == 0

    def test_negative_level(self, capsys):
        code, _, err = run_cli(
            capsys, "report", "--group", "profinite",
            "--primes", "2,3,5", "--n-max", "1", "--wn", "-1",
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_wrong_group(self, capsys):
        code, _, err = run_cli(capsys, "report", "--N", "5", "--wn", "1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "KindMismatch"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qcdense", "gen", "--N", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payload"]["members"] == ["1/2", "1/4"]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__


def _certificate(cert):
    return certificate_to_json(cert), {"mode": cert.mode}


def _qc(seq, bound):
    return _certificate(certify_qc(seq, seq.group, bound))


# the README's examples, each with its envelope's payload and header fields
# built through the library
README_EXAMPLES = {
    "gen solenoid": (
        "gen --group solenoid --primes 2,3,5 --n-max 0 --N 1",
        lambda: (superseq_to_json(solenoid_sequence((2, 3, 5), 0, 1)), {}),
    ),
    "certify torus": (
        "certify --group torus --N 10000 --bound 10000",
        lambda: _qc(torus_sequence(10000), 10000),
    ),
    "certify profinite": (
        "certify --group profinite --primes below:100 --n-max 24 --m-cap 2600 --bound 100",
        lambda: _qc(profinite_sequence(tuple(primes_below(100)), 24, 2600), 100),
    ),
    "certify singleton": (
        "certify --singleton 1/3 --bound 3",
        lambda: _qc(from_members(Torus(), [phi("1/3")], name="singleton"), 3),
    ),
    "certify generation": (
        "certify --group torus --N 100 --bound 50 --mode generation",
        lambda: _certificate(check_generation(torus_sequence(100), Torus(), 50)),
    ),
    "certify A5": (
        "certify --group torus --N 100 --bound 50 --finite-factor A5",
        lambda: _certificate(
            certify_qc_with_finite_factor(torus_sequence(100), builtin_group("A5"), 50)
        ),
    ),
    "report": (
        "report --group profinite --primes 2,3,5,7 --n-max 3 --m-cap 27000 --wn 2",
        lambda: (
            escape_report_to_json(escape_report(profinite_sequence((2, 3, 5, 7), 3, 27000), 2)),
            {},
        ),
    ),
}


class TestOutputBytes:
    """--out holds json.dump(envelope, indent=2, sort_keys=True) and a newline."""

    @pytest.mark.parametrize("name", sorted(README_EXAMPLES))
    def test_readme_example(self, capsys, tmp_path, name):
        command, build = README_EXAMPLES[name]
        argv = command.split()
        target = tmp_path / "out.json"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (out, err) == ("", "")
        assert code == (1 if name == "certify singleton" else 0)
        payload, extra = build()
        header = {"tool": "qcdense", "version": __version__, "command": argv[0], **extra}
        fh = io.StringIO()
        json.dump({"header": header, "payload": payload}, fh, indent=2, sort_keys=True)
        assert target.read_bytes() == (fh.getvalue() + "\n").encode("ascii")
