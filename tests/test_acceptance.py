"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Each test prints a single PASS line on success; pytest -v shows one
verdict per criterion.  Performance budgets are asserted where stated.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from qcdense._intmath import primes_below
from qcdense.certify import (
    brute_force_witness,
    certify_qc,
    check_generation,
    escape_report,
    witness_fan,
    witness_profinite,
    witness_solenoid,
)
from qcdense.circle import UnitRational, in_tplus, phi
from qcdense.cli import main
from qcdense.duality import (
    ProductChar,
    SolenoidChar,
    TorusChar,
    eval_char,
    is_trivial,
    trivial_char,
)
from qcdense.groups import (
    IntegerPoint,
    Profinite,
    Solenoid,
    SolenoidPoint,
    Torus,
    k_sequence,
)
from qcdense.nonabelian import abelianization, builtin_group, certify_qc_with_finite_factor, is_perfect
from qcdense.sequences import (
    SolenoidToTorus,
    fan,
    from_members,
    profinite_sequence,
    pushforward,
    solenoid_sequence,
    torus_sequence,
)

from test_nonabelian import count_homs_to_cyclic

P235 = (2, 3, 5)
P2357 = (2, 3, 5, 7)


def all_100_smooth(b, primes):
    x = b
    for p in primes:
        while x % p == 0:
            x //= p
    return x == 1


class TestAcceptance:
    def test_criterion_01_torus_qc_density(self, tmp_path):
        out = tmp_path / "torus.json"
        t0 = time.monotonic()
        code = main(["certify", "--group", "torus", "--N", "10000",
                     "--bound", "10000", "--out", str(out)])
        elapsed = time.monotonic() - t0
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["status"] == "certified"
        records = payload["records"]
        assert len(records) == 20000
        for rec in records:
            m = rec["character"]["m"]
            assert rec["witness"] == f"1/{2 * abs(m)}"
            # -1/2 and 1/2 are the same point of R/Z; the canonical form is 1/2
            assert rec["value"] == "1/2"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        print(f"PASS 1/10 torus certified at bound 10000, half-turn witnesses ({elapsed:.2f}s)")

    def test_criterion_02_profinite_witnesses(self):
        primes = primes_below(100)
        t0 = time.monotonic()
        seq = profinite_sequence(primes, 24, 2600)
        members = frozenset(seq.members)
        checked = 0
        for b in range(2, 10001):
            if not all_100_smooth(b, primes):
                continue
            for a in range(1, b):
                if gcd(a, b) != 1:
                    continue
                chi = UnitRational(a, b)
                rec = witness_profinite(chi, seq, primes)
                assert not in_tplus(rec.value)
                checked += 1
                if checked % 997 == 0:
                    assert rec.witness in members
                    assert eval_char(rec.character, rec.witness) == rec.value
                if b <= 200:
                    assert rec.witness in members
                    brute = brute_force_witness(rec.character, seq)
                    assert brute is not None
                    assert not in_tplus(brute.value)
        elapsed = time.monotonic() - t0
        assert checked == 7576541
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        print(f"PASS 2/10 profinite witnesses for {checked} characters ({elapsed:.2f}s)")

    def test_criterion_03_solenoid_witnesses(self):
        primes = primes_below(200)
        t0 = time.monotonic()
        seq = solenoid_sequence(primes, 45, 200, 60)
        members = frozenset(seq.members)
        flag_of = dict(zip(seq.members, seq.arc_flags))
        checked = 0
        for b in range(1, 201):
            for a in range(-200, 201):
                if a == 0 or gcd(abs(a), b) != 1:
                    continue
                rec = witness_solenoid(Fraction(a, b), seq, primes)
                assert not in_tplus(rec.value)
                assert rec.witness in members
                assert flag_of[rec.witness] is True
                assert eval_char(rec.character, rec.witness) == rec.value
                checked += 1
        elapsed = time.monotonic() - t0
        assert checked == 48926
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        print(f"PASS 3/10 solenoid witnesses for {checked} characters, all on the arc ({elapsed:.2f}s)")

    def test_criterion_04_escape_convergence(self):
        seq = profinite_sequence(P2357, 3, m_cap=27000)
        raised = profinite_sequence(P2357, 3, m_cap=54000)
        counts = []
        for n in range(4):
            rep = escape_report(seq, n)
            k_n = k_sequence(P2357, n)
            oracle = tuple(x for x in seq.members if x.m % k_n != 0)
            assert rep.members == oracle
            assert rep.count == len(oracle)
            assert rep.stable
            assert escape_report(raised, n).count == rep.count
            counts.append(rep.count)
        assert counts[0] == 0
        assert counts[1] == 1
        print(f"PASS 4/10 escape counts {counts} stable under raising the cap")

    def test_criterion_05_fan(self):
        primes = primes_below(50)
        parts = [solenoid_sequence(primes, 14, 50, 16) for _ in range(3)]
        f = fan(parts)
        cert = certify_qc(f, f.group, 50)
        assert cert.certified
        assert cert.coverage == "componentwise"
        # direct mixed-character witnesses through the fan finder
        triv = trivial_char(Solenoid(primes))
        for comps in [
            (SolenoidChar(Fraction(1)), SolenoidChar(Fraction(1, 2)), triv),
            (triv, SolenoidChar(Fraction(-3)), SolenoidChar(Fraction(2, 5))),
        ]:
            rec = witness_fan(ProductChar(comps), f)
            assert not in_tplus(rec.value)
            assert eval_char(rec.character, rec.witness) == rec.value
        stuck = from_members(
            Solenoid(primes), [SolenoidPoint(Fraction(1, 3))], name="singleton"
        )
        bad = fan([parts[0], stuck, parts[2]])
        cert2 = certify_qc(bad, bad.group, 50)
        assert not cert2.certified
        comps = cert2.failed_character.components
        assert is_trivial(comps[0]) and is_trivial(comps[2])
        assert comps[1] == SolenoidChar(Fraction(1, 2))
        print("PASS 5/10 fan of three certified, singleton component fails on its own coordinate")

    def test_criterion_06_pushforward(self):
        seq = solenoid_sequence(P235, 1, 100)
        image = pushforward(seq, SolenoidToTorus())
        assert image.group == Torus()
        assert image.members == torus_sequence(100).members
        cert = certify_qc(image, Torus(), 100)
        assert cert.certified
        assert len(cert.records) == 200
        print("PASS 6/10 arc quotient image equals the torus family, certified at bound 100")

    def test_criterion_07_generation(self):
        s1 = torus_sequence(10000)
        qc1 = certify_qc(s1, Torus(), 10000)
        gen1 = check_generation(s1, Torus(), 10000)
        assert qc1.certified and gen1.certified

        p100 = primes_below(100)
        s2 = profinite_sequence(p100, 24, 2600)
        qc2 = certify_qc(s2, Profinite(p100), 100)
        gen2 = check_generation(s2, Profinite(p100), 100)
        assert qc2.certified and gen2.certified

        p200 = primes_below(200)
        s3 = solenoid_sequence(p200, 45, 200, 60)
        qc3 = certify_qc(s3, Solenoid(p200), 200)
        gen3 = check_generation(s3, Solenoid(p200), 200)
        assert qc3.certified and gen3.certified

        for cert in (gen1, gen2, gen3):
            assert all(not r.value.is_zero() for r in cert.records)
        print("PASS 7/10 qc-certified families also pass topological generation at the same bound")

    def test_criterion_08_negative_controls(self):
        s = from_members(Torus(), [phi("1/3")], name="singleton")
        cert = certify_qc(s, Torus(), 3)
        assert not cert.certified
        assert cert.failed_character == TorusChar(3)
        assert len(cert.records) == 4

        rng = random.Random(20260817)
        for trial in range(5):
            size = rng.randint(2, 5)
            members = set()
            while len(members) < size:
                b = rng.randint(2, 20)
                a = rng.randint(1, b - 1)
                members.add(UnitRational(a, b))
            L = 1
            for x in members:
                L = lcm(L, x.den)
            subset = from_members(Torus(), sorted(members, key=lambda x: (x.den, x.num)),
                                  name=f"subset{trial}")
            failed = certify_qc(subset, Torus(), L)
            assert not failed.certified
            for x in subset.members:
                # the named character traps the whole subset in the arc
                assert in_tplus(eval_char(failed.failed_character, x))
        print("PASS 8/10 singleton fails at m=3; five random finite subsets fail at their lcm bound")

    def test_criterion_09_finite_factors(self):
        A5 = builtin_group("A5")
        S3 = builtin_group("S3")
        assert is_perfect(A5)
        assert abelianization(S3).factors == (2,)

        cert = certify_qc_with_finite_factor(torus_sequence(1000), A5, 1000)
        assert cert.certified
        assert len(cert.records) == 2000

        failed = certify_qc_with_finite_factor(torus_sequence(1000), S3, 1000)
        assert not failed.certified
        zeta = failed.failed_character.components[1]
        assert zeta.factors == (2,)
        assert zeta.coeffs == (1,)

        names = [f"C{n}" for n in range(1, 25)]
        names += [f"D{n}" for n in range(3, 13)]
        names += ["S3", "A4", "S4", "Q8"]
        for name in names:
            F = builtin_group(name)
            assert F.order <= 24
            assert count_homs_to_cyclic(F, F.order) == abelianization(F).order
        print(f"PASS 9/10 perfect factor certified, sign character blocks S3, hom counts match on {len(names)} groups")

    def test_criterion_10_reproducibility(self, tmp_path):
        argv = ["certify", "--group", "solenoid", "--primes", "below:200",
                "--n-max", "45", "--N", "200", "--m-cap", "60", "--bound", "200"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
        gen = ["gen", "--group", "profinite", "--primes", "2,3,5", "--n-max", "2"]
        assert main(gen + ["--out", str(g1)]) == 0
        assert main(gen + ["--out", str(g2)]) == 0
        assert g1.read_bytes() == g2.read_bytes()
        print("PASS 10/10 byte-identical payloads across runs")
