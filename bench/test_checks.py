"""The benchmark's independent checks accept real output and reject bad output.

Each check runs on the program's own output at a small scale, then on
copies with one value tampered, one record dropped, and two records
swapped; every copy must be rejected.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import dataclasses
import json
import sys
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
from qcdense import (  # noqa: E402
    UnitRational,
    WitnessRecord,
    builtin_group,
    certify_qc,
    certify_qc_with_finite_factor,
    check_generation,
    fan,
    primes_below,
    profinite_sequence,
    solenoid_sequence,
    torus_sequence,
    witness_profinite,
)
from qcdense.cli import main  # noqa: E402


def with_records(cert, records):
    return dataclasses.replace(cert, records=tuple(records))


def with_value(rec, num, den):
    return WitnessRecord(rec.character, rec.witness, UnitRational(num, den),
                         rec.in_tplus, rec.method)


def swapped(seq, i):
    out = list(seq)
    out[i], out[i + 1] = out[i + 1], out[i]
    return out


# ---------------------------------------------------------------------------
# solenoid-cli


SOLENOID = dict(primes=checks.primes_below(20), n_max=6, N=12, m_cap=60, bound=12)


@pytest.fixture(scope="module")
def solenoid_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "cert.json"
    argv = ["certify", "--group", "solenoid", "--primes", "below:20", "--n-max", "6",
            "--N", "12", "--m-cap", "60", "--bound", "12", "--out", str(out)]
    assert main(argv) == 0
    return json.loads(out.read_text())


def test_solenoid_accepts(solenoid_doc):
    methods = checks.check_solenoid_document(solenoid_doc, **SOLENOID)
    assert sum(methods.values()) == checks.solenoid_count(12)


def test_solenoid_count_formula():
    assert checks.solenoid_count(200) == 48926
    assert sum(1 for _ in checks.solenoid_chars(200)) == 48926


def test_solenoid_rejects_tampered_value(solenoid_doc):
    doc = copy.deepcopy(solenoid_doc)
    rec = doc["payload"]["records"][7]
    rec["value"] = "2/5" if rec["value"] != "2/5" else "3/5"
    with pytest.raises(checks.CheckError, match="value"):
        checks.check_solenoid_document(doc, **SOLENOID)


def test_solenoid_rejects_dropped_record(solenoid_doc):
    doc = copy.deepcopy(solenoid_doc)
    del doc["payload"]["records"][7]
    with pytest.raises(checks.CheckError, match="records"):
        checks.check_solenoid_document(doc, **SOLENOID)


def test_solenoid_rejects_reordered_record(solenoid_doc):
    doc = copy.deepcopy(solenoid_doc)
    doc["payload"]["records"] = swapped(doc["payload"]["records"], 7)
    with pytest.raises(checks.CheckError, match="character"):
        checks.check_solenoid_document(doc, **SOLENOID)


def test_solenoid_rejects_non_member_witness(solenoid_doc):
    doc = copy.deepcopy(solenoid_doc)
    rec = doc["payload"]["records"][0]  # 1/1, witnessed by the arc member 1/2
    rec["witness"]["r"] = "3/2"  # same value, but no member of either block
    with pytest.raises(checks.CheckError, match="not a member"):
        checks.check_solenoid_document(doc, **SOLENOID)


def test_payload_hash_ignores_the_header(tmp_path):
    base = '{\n  "header": {\n    "tool": "qcdense"\n  },\n  "payload": {\n    "x": 1\n  }\n}\n'
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    a.write_text(base)
    b.write_text(base.replace('"tool": "qcdense"', '"elapsed_s": 1.5'))
    c.write_text(base.replace('"x": 1', '"x": 2'))
    assert run.payload_sha256(a) == run.payload_sha256(b) != run.payload_sha256(c)


# ---------------------------------------------------------------------------
# profinite-sweep


PROFINITE_PRIMES = tuple(primes_below(30))


@pytest.fixture(scope="module")
def profinite_batches():
    seq = profinite_sequence(PROFINITE_PRIMES, 9, 2600)
    batches = []
    for b in range(2, 61):
        if checks.is_smooth(b, PROFINITE_PRIMES):
            nums = [a for a in range(1, b) if gcd(a, b) == 1]
            recs = [witness_profinite(UnitRational(a, b), seq, PROFINITE_PRIMES) for a in nums]
            batches.append((b, nums, recs))
    return batches


def profinite_checker():
    return checks.ProfiniteChecker(PROFINITE_PRIMES, 9, 2600)


def test_profinite_accepts(profinite_batches):
    checker = profinite_checker()
    total = sum(sum(checker.check_batch(*batch).values()) for batch in profinite_batches)
    assert total == checks.smooth_profinite_count(60, PROFINITE_PRIMES)


def test_profinite_rejects_tampered_value(profinite_batches):
    b, nums, recs = profinite_batches[-1]
    recs = list(recs)
    recs[3] = with_value(recs[3], recs[3].value.num + 1, recs[3].value.den)
    with pytest.raises(checks.CheckError, match="value"):
        profinite_checker().check_batch(b, nums, recs)


def test_profinite_rejects_dropped_record(profinite_batches):
    b, nums, recs = profinite_batches[-1]
    with pytest.raises(checks.CheckError, match="records for"):
        profinite_checker().check_batch(b, nums, recs[:3] + recs[4:])


def test_profinite_rejects_reordered_record(profinite_batches):
    b, nums, recs = profinite_batches[-1]
    with pytest.raises(checks.CheckError, match="record is for"):
        profinite_checker().check_batch(b, nums, swapped(recs, 3))


def test_profinite_rejects_a_multiplier_that_is_not_least(profinite_batches):
    checker = profinite_checker()
    b, nums, recs = next(batch for batch in profinite_batches if batch[0] == 60)
    i = nums.index(7)  # 7/60 first escapes at m = 2 on k_2 = 36
    rec = recs[i]
    n = checker.level(b)
    m = rec.witness.m // checker.k[n - 1]
    later = next(mm for mm in range(m + 1, 60)
                 if not checks.in_arc(7 * mm * checker.k[n - 1], b))
    w = later * checker.k[n - 1]
    fake = WitnessRecord(rec.character, type(rec.witness)(w),
                         UnitRational(7 * w, b), False, rec.method)
    with pytest.raises(checks.CheckError, match="already escapes"):
        checker.check_batch(b, nums, recs[:i] + [fake] + recs[i + 1:])


# ---------------------------------------------------------------------------
# product-sweeps


FAN_PRIMES = tuple(primes_below(100))
FAN_BOUND = 20


@pytest.fixture(scope="module")
def fan_certs():
    seq = fan([solenoid_sequence(FAN_PRIMES, 24, FAN_BOUND, 8),
               profinite_sequence(FAN_PRIMES, 24, 8), torus_sequence(FAN_BOUND)])
    return (certify_qc(seq, seq.group, FAN_BOUND, 1),
            check_generation(seq, seq.group, FAN_BOUND, 1))


def fan_checker():
    return checks.FanChecker(FAN_PRIMES, 24, FAN_BOUND, FAN_BOUND, 8)


def test_fan_accepts(fan_certs):
    qc, gen = fan_certs
    assert sum(fan_checker().check(qc, "qc", FAN_BOUND).values()) == checks.fan_count(FAN_BOUND)
    assert sum(fan_checker().check(gen, "generation", FAN_BOUND).values()) == len(gen.records)


def test_fan_count_formula():
    assert checks.fan_count(100) == 12174 + 3043 + 200 == 15417


def test_fan_rejects_tampered_value(fan_certs):
    qc, _ = fan_certs
    recs = list(qc.records)
    recs[11] = with_value(recs[11], recs[11].value.num + 1, recs[11].value.den)
    with pytest.raises(checks.CheckError, match="value"):
        fan_checker().check(with_records(qc, recs), "qc", FAN_BOUND)


def test_fan_rejects_dropped_record(fan_certs):
    qc, _ = fan_certs
    with pytest.raises(checks.CheckError, match="fan records"):
        fan_checker().check(with_records(qc, qc.records[1:]), "qc", FAN_BOUND)


def test_fan_rejects_reordered_record(fan_certs):
    _, gen = fan_certs
    with pytest.raises(checks.CheckError, match="components"):
        fan_checker().check(with_records(gen, swapped(gen.records, 11)), "generation", FAN_BOUND)


@pytest.fixture(scope="module")
def a5_cert():
    return certify_qc_with_finite_factor(torus_sequence(30), builtin_group("A5"), 30)


def test_finite_factor_accepts(a5_cert):
    assert checks.check_finite_factor(a5_cert, 30) == {"torus_formula": 60}


def test_finite_factor_rejects_tampered_value(a5_cert):
    recs = list(a5_cert.records)
    recs[5] = with_value(recs[5], 1, 3)
    with pytest.raises(checks.CheckError, match="value"):
        checks.check_finite_factor(with_records(a5_cert, recs), 30)


def test_finite_factor_rejects_dropped_record(a5_cert):
    with pytest.raises(checks.CheckError, match="records"):
        checks.check_finite_factor(with_records(a5_cert, a5_cert.records[:-1]), 30)


def test_finite_factor_rejects_reordered_record(a5_cert):
    with pytest.raises(checks.CheckError, match="torus part"):
        checks.check_finite_factor(with_records(a5_cert, swapped(a5_cert.records, 4)), 30)
