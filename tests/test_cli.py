"""Command line contract: payload shapes, exit codes, error reporting."""

import json
import subprocess
import sys

import pytest

from qcdense import __version__
from qcdense.cli import main


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
