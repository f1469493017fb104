"""Witness finders, certification sweeps, escape reports."""

import dataclasses
import os
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qcdense.certify import (
    Certificate,
    EscapeReport,
    WitnessRecord,
    _reverify,
    brute_force_witness,
    certify_qc,
    check_generation,
    escape_report,
    least_escaping_multiple,
    minimal_level,
    witness_fan,
    witness_profinite,
    witness_solenoid,
    witness_torus,
)
from qcdense.circle import UnitRational, in_tplus, phi
from qcdense.duality import (
    ProductChar,
    ProfiniteChar,
    SolenoidChar,
    TorusChar,
    enumerate_chars,
    eval_char,
    trivial_char,
)
from qcdense.errors import (
    InvariantViolation,
    KindMismatch,
    TruncationTooSmall,
    UnsupportedBound,
    ValidationError,
)
from qcdense.groups import (
    Cyclic,
    IntegerPoint,
    Product,
    Profinite,
    Solenoid,
    SolenoidPoint,
    Torus,
    k_sequence,
)
from qcdense.sequences import (
    fan,
    from_members,
    profinite_sequence,
    solenoid_sequence,
    torus_sequence,
)
from qcdense.serialize import canonical_dumps, certificate_to_json

P235 = (2, 3, 5)


# --- least escaping multiple -------------------------------------------------


def oracle_least_escape(num, den):
    """Literal scan: smallest m whose multiple leaves the closed quarter arc."""
    m = 1
    while True:
        f = Fraction(m * num, den) % 1
        if not (f <= Fraction(1, 4) or f >= Fraction(3, 4)):
            return m
        m += 1


class TestLeastEscape:
    def test_already_outside(self):
        assert least_escaping_multiple(1, 3) == 1
        assert least_escaping_multiple(2, 5) == 1

    def test_small_step(self):
        # 1/8 doubles to the boundary, escapes at the third step
        assert least_escaping_multiple(1, 8) == 3
        assert least_escaping_multiple(1, 100) == 26

    def test_negative_side(self):
        # 7/8 walks backwards from a full turn
        assert least_escaping_multiple(7, 8) == 3

    def test_boundary_stays_inside(self):
        # exact quarter points never escape their first step
        assert least_escaping_multiple(1, 4) == 2
        assert least_escaping_multiple(3, 4) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            least_escaping_multiple(0, 5)
        with pytest.raises(ValidationError):
            least_escaping_multiple(1, 1)

    @given(st.integers(min_value=2, max_value=4000), st.data())
    def test_matches_literal_scan(self, den, data):
        num = data.draw(st.integers(min_value=1, max_value=den - 1))
        m = least_escaping_multiple(num, den)
        assert m == oracle_least_escape(num, den)
        for j in range(1, m):
            f = Fraction(j * num, den) % 1
            assert f <= Fraction(1, 4) or f >= Fraction(3, 4)


# --- minimal level -----------------------------------------------------------


class TestMinimalLevel:
    def test_known_levels(self):
        assert minimal_level(2, P235) == 1
        assert minimal_level(3, P235) == 2
        assert minimal_level(4, P235) == 2
        assert minimal_level(5, P235) == 3
        assert minimal_level(8, P235) == 3
        assert minimal_level(6, P235) == 2

    def test_divisibility_defines_the_level(self):
        for b in (2, 3, 4, 5, 6, 8, 9, 10, 12, 25, 30, 36, 40):
            n = minimal_level(b, P235)
            assert k_sequence(P235, n) % b == 0
            assert k_sequence(P235, n - 1) % b != 0

    def test_foreign_prime(self):
        with pytest.raises(UnsupportedBound):
            minimal_level(7, P235)

    def test_unit_denominator(self):
        with pytest.raises(ValidationError):
            minimal_level(1, P235)

    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3))
    def test_smooth_property(self, e2, e3, e5):
        b = 2**e2 * 3**e3 * 5**e5
        if b == 1:
            return
        n = minimal_level(b, P235)
        assert k_sequence(P235, n) % b == 0
        assert n == 0 or k_sequence(P235, n - 1) % b != 0


# --- constructive witnesses --------------------------------------------------


class TestTorusWitness:
    def test_half_turn_value(self):
        s = torus_sequence(10)
        rec = witness_torus(TorusChar(3), s)
        assert rec.witness == UnitRational(1, 6)
        assert rec.value == UnitRational(1, 2)
        assert rec.method == "torus_formula"
        assert not rec.in_tplus

    def test_negative_frequency(self):
        s = torus_sequence(10)
        rec = witness_torus(TorusChar(-2), s)
        assert rec.witness == UnitRational(1, 4)
        assert rec.value == UnitRational(1, 2)

    def test_int_coercion(self):
        s = torus_sequence(5)
        assert witness_torus(4, s).witness == UnitRational(1, 8)

    def test_truncation_too_small(self):
        s = torus_sequence(10)
        with pytest.raises(TruncationTooSmall):
            witness_torus(TorusChar(11), s)

    def test_trivial_rejected(self):
        with pytest.raises(ValidationError):
            witness_torus(TorusChar(0), torus_sequence(3))


class TestProfiniteWitness:
    def test_frozen_example(self):
        # 1/3 first sees a nonzero pairing at level 2, witnessed by 2v
        s = profinite_sequence(P235, 2)
        rec = witness_profinite(ProfiniteChar(UnitRational(1, 3)), s)
        assert rec.witness == IntegerPoint(2)
        assert rec.value == UnitRational(2, 3)
        assert rec.method == "minimal_n"
        assert rec.witness in s.members
        # records stay frozen, hashable values equal to a field-wise rebuild
        same = WitnessRecord(
            ProfiniteChar(UnitRational(1, 3)), IntegerPoint(2), UnitRational(2, 3),
            False, "minimal_n",
        )
        assert rec == same and hash(rec) == hash(same)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.witness = IntegerPoint(4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.character.q = UnitRational(2, 3)

    def test_level_one_denominator(self):
        s = profinite_sequence(P235, 1)
        rec = witness_profinite(ProfiniteChar(UnitRational(1, 2)), s)
        assert rec.witness == IntegerPoint(1)
        assert rec.value == UnitRational(1, 2)

    def test_multiplier_beyond_one(self):
        # 1/5 pairs k_2 = 36 to 1/5, which needs a doubling to escape
        s = profinite_sequence(P235, 2)
        rec = witness_profinite(ProfiniteChar(UnitRational(1, 5)), s)
        assert rec.witness == IntegerPoint(72)
        assert rec.value == UnitRational(2, 5)

    def test_unit_rational_coercion(self):
        s = profinite_sequence(P235, 1)
        assert witness_profinite(UnitRational(1, 2), s).witness == IntegerPoint(1)

    def test_truncation_too_small(self):
        s = profinite_sequence(P235, 0)
        with pytest.raises(TruncationTooSmall) as exc:
            witness_profinite(ProfiniteChar(UnitRational(1, 5)), s)
        # 5 is the third working prime, so n = 3; k_2 = 36 pairs 1/5 to 1/5,
        # whose least escaping multiple is 5 // 4 + 1 = 2
        assert exc.value.needed == (2, 2)
        assert str(exc.value) == "witness needs truncation level 2 with multiplier cap 2"

    def test_escape_on_every_supported_denominator(self):
        s = profinite_sequence(P235, 2)
        for chi in enumerate_chars(Profinite(P235), 6):
            rec = witness_profinite(chi, s)
            assert not in_tplus(rec.value)
            assert eval_char(chi, rec.witness) == rec.value


class TestSolenoidWitness:
    def test_fiber_witness(self):
        s = solenoid_sequence(P235, 2, 5)
        rec = witness_solenoid(SolenoidChar(Fraction(1, 2)), s)
        assert rec.witness == SolenoidPoint(Fraction(-1))
        assert rec.value == UnitRational(1, 2)
        assert rec.method == "solenoid_split"

    def test_arc_witness(self):
        s = solenoid_sequence(P235, 1, 10)
        rec = witness_solenoid(SolenoidChar(Fraction(3)), s)
        assert rec.witness == SolenoidPoint(Fraction(1, 6))
        assert rec.value == UnitRational(1, 2)

    def test_fraction_coercion(self):
        s = solenoid_sequence(P235, 1, 5)
        assert witness_solenoid(Fraction(2), s).witness == SolenoidPoint(Fraction(1, 4))

    def test_arc_truncation_too_small(self):
        s = solenoid_sequence(P235, 1, 3)
        with pytest.raises(TruncationTooSmall):
            witness_solenoid(SolenoidChar(Fraction(4)), s)

    def test_fiber_truncation_too_small(self):
        s = solenoid_sequence(P235, 0, 3)
        with pytest.raises(TruncationTooSmall):
            witness_solenoid(SolenoidChar(Fraction(1, 5)), s)

    def test_escape_on_every_supported_char(self):
        s = solenoid_sequence(P235, 2, 6)
        for chi in enumerate_chars(Solenoid(P235), 6):
            rec = witness_solenoid(chi, s)
            assert not in_tplus(rec.value)
            assert eval_char(chi, rec.witness) == rec.value


class TestBruteForce:
    def test_finds_first_escaper(self):
        s = from_members(Torus(), [phi("1/8"), phi("1/3")], name="pair")
        rec = brute_force_witness(TorusChar(1), s)
        assert rec.witness == UnitRational(1, 3)
        assert rec.method == "brute_force"

    def test_none_when_trapped(self):
        s = from_members(Torus(), [phi("1/8")], name="one")
        assert brute_force_witness(TorusChar(1), s) is None


# --- qc certification --------------------------------------------------------


class TestCertifyQc:
    def test_torus_full_sweep(self):
        s = torus_sequence(100)
        cert = certify_qc(s, Torus(), 10)
        assert cert.certified
        assert cert.status == "certified"
        assert cert.mode == "qc"
        assert cert.coverage == "full"
        assert len(cert.records) == 20
        assert [r.character for r in cert.records] == enumerate_chars(Torus(), 10)
        assert all(r.value == UnitRational(1, 2) for r in cert.records)
        assert all(r.method == "torus_formula" for r in cert.records)

    def test_singleton_fails_at_its_denominator(self):
        s = from_members(Torus(), [phi("1/3")], name="singleton")
        cert = certify_qc(s, Torus(), 3)
        assert not cert.certified
        assert cert.status == "failed"
        assert cert.failed_character == TorusChar(3)
        # 1, -1, 2, -2 all escape on 1/3 before the failure
        assert len(cert.records) == 4

    def test_profinite_brute_fallback(self):
        # level 0 truncation lacks the constructive witness for 1/5 but
        # already contains an escaping member
        s = profinite_sequence(P235, 0)
        cert = certify_qc(s, Profinite(P235), 5)
        assert cert.certified
        by_char = {r.character: r for r in cert.records}
        rec = by_char[ProfiniteChar(UnitRational(1, 5))]
        assert rec.method == "brute_force"
        assert rec.witness == IntegerPoint(2)

    def test_solenoid_sweep(self):
        s = solenoid_sequence(P235, 2, 6)
        cert = certify_qc(s, Solenoid(P235), 6)
        assert cert.certified
        assert len(cert.records) == len(enumerate_chars(Solenoid(P235), 6))

    def test_empty_dual_is_vacuous(self):
        s = from_members(Cyclic(1), [], name="empty")
        cert = certify_qc(s, Cyclic(1), 100)
        assert cert.certified
        assert cert.records == ()

    def test_group_mismatch(self):
        with pytest.raises(KindMismatch):
            certify_qc(torus_sequence(5), Profinite(P235), 5)

    def test_unsupported_bound_propagates(self):
        s = profinite_sequence(P235, 2)
        with pytest.raises(UnsupportedBound):
            certify_qc(s, Profinite(P235), 7)

    def test_records_reverify(self):
        cert = certify_qc(torus_sequence(20), Torus(), 8)
        for rec in cert.records:
            assert eval_char(rec.character, rec.witness) == rec.value
            assert not in_tplus(rec.value)


def payload_bytes(cert):
    return canonical_dumps(certificate_to_json(cert))


class TestDeterminism:
    def test_results_reproducible(self):
        s = torus_sequence(200)
        one = certify_qc(s, Torus(), 100)
        two = certify_qc(s, Torus(), 100)
        assert one == two
        assert payload_bytes(one) == payload_bytes(two)
        assert len(one.records) == 200

    def test_threads_argument_ignored(self):
        # the trailing parameter stays for positional callers; it changes nothing
        s = torus_sequence(150)
        assert payload_bytes(certify_qc(s, Torus(), 75, 4)) == payload_bytes(
            certify_qc(s, Torus(), 75)
        )


# --- generation certification ------------------------------------------------


class TestGeneration:
    def test_singleton_annihilated(self):
        s = from_members(Torus(), [phi("1/2")], name="singleton")
        cert = check_generation(s, Torus(), 2)
        assert not cert.certified
        assert cert.failed_character == TorusChar(2)
        assert cert.mode == "generation"

    def test_nonzero_inside_arc_counts(self):
        # qc fails on a member trapped in the arc, generation does not
        s = from_members(Torus(), [phi("1/8")], name="singleton")
        gen = check_generation(s, Torus(), 1)
        assert gen.certified
        rec = gen.records[0]
        assert rec.value == UnitRational(1, 8)
        assert rec.in_tplus
        qc = certify_qc(s, Torus(), 1)
        assert not qc.certified

    def test_torus_family_generates(self):
        cert = check_generation(torus_sequence(50), Torus(), 20)
        assert cert.certified
        assert all(not r.value.is_zero() for r in cert.records)

    def test_solenoid_generation(self):
        s = solenoid_sequence(P235, 2, 6)
        cert = check_generation(s, Solenoid(P235), 6)
        assert cert.certified
        assert len(cert.records) == len(enumerate_chars(Solenoid(P235), 6))

    def test_group_mismatch(self):
        with pytest.raises(KindMismatch):
            check_generation(torus_sequence(5), Solenoid(P235), 5)


# --- fan certification -------------------------------------------------------


class TestFan:
    def test_componentwise_coverage(self):
        f = fan([torus_sequence(20), torus_sequence(20)])
        cert = certify_qc(f, f.group, 5)
        assert cert.certified
        assert cert.coverage == "componentwise"
        # five frequencies, two signs, two coordinates
        assert len(cert.records) == 20
        for rec in cert.records:
            assert isinstance(rec.character, ProductChar)
            lively = [c for c in rec.character.components if c != TorusChar(0)]
            assert len(lively) == 1

    def test_witness_on_single_coordinate(self):
        f = fan([torus_sequence(10), torus_sequence(10)])
        cert = certify_qc(f, f.group, 3)
        for rec in cert.records:
            coords = rec.witness.coords
            assert sum(1 for c in coords if c != UnitRational(0, 1)) == 1

    def test_failing_part_names_the_character(self):
        # the middle part is a singleton killed by doubling
        f = fan([torus_sequence(10), from_members(Torus(), [phi("1/2")], name="stuck"),
                 torus_sequence(10)])
        cert = certify_qc(f, f.group, 3)
        assert not cert.certified
        failed = cert.failed_character
        assert failed.components[0] == TorusChar(0)
        assert failed.components[1] == TorusChar(2)
        assert failed.components[2] == TorusChar(0)

    def test_mixed_kind_fan(self):
        f = fan([torus_sequence(10), profinite_sequence(P235, 2)])
        cert = certify_qc(f, f.group, 5)
        assert cert.certified
        methods = {r.method for r in cert.records}
        assert "torus_formula" in methods
        assert "minimal_n" in methods

    def test_fan_generation(self):
        f = fan([torus_sequence(10), torus_sequence(10)])
        cert = check_generation(f, f.group, 4)
        assert cert.certified
        assert cert.coverage == "componentwise"

    def test_witness_fan_needs_fan(self):
        chi = ProductChar((TorusChar(1), TorusChar(0)))
        with pytest.raises(KindMismatch):
            witness_fan(chi, torus_sequence(5))

    def test_witness_fan_needs_product_char(self):
        f = fan([torus_sequence(5), torus_sequence(5)])
        with pytest.raises(KindMismatch):
            witness_fan(TorusChar(1), f)


# --- record re-verification --------------------------------------------------


class TestReverify:
    def test_value_mismatch(self):
        rec = WitnessRecord(TorusChar(1), UnitRational(1, 2), UnitRational(1, 3),
                            False, "brute_force")
        with pytest.raises(InvariantViolation):
            _reverify(rec, "qc")

    def test_qc_rejects_arc_value(self):
        rec = WitnessRecord(TorusChar(1), UnitRational(1, 8), UnitRational(1, 8),
                            True, "brute_force")
        with pytest.raises(InvariantViolation):
            _reverify(rec, "qc")

    def test_generation_rejects_zero(self):
        rec = WitnessRecord(TorusChar(2), UnitRational(1, 2), UnitRational(0, 1),
                            False, "brute_force")
        with pytest.raises(InvariantViolation):
            _reverify(rec, "generation")

    def test_good_records_pass(self):
        rec = WitnessRecord(TorusChar(1), UnitRational(1, 3), UnitRational(1, 3),
                            False, "brute_force")
        _reverify(rec, "qc")
        _reverify(rec, "generation")


# --- escape reports ----------------------------------------------------------


class TestEscapeReport:
    def test_level_zero_is_empty(self):
        rep = escape_report(profinite_sequence(P235, 1), 0)
        assert rep.count == 0
        assert rep.members == ()
        assert rep.stable

    def test_only_odd_members_escape_w1(self):
        s = profinite_sequence(P235, 2)
        rep = escape_report(s, 1)
        assert rep.members == (IntegerPoint(1),)
        assert rep.count == 1
        assert rep.stable

    def test_counts_match_membership_scan(self):
        s = profinite_sequence(P235, 2, m_cap=100)
        for n in range(0, 3):
            rep = escape_report(s, n)
            k_n = k_sequence(P235, n)
            expected = tuple(x for x in s.members if x.m % k_n != 0)
            assert rep.members == expected
            assert rep.count == len(expected)

    def test_cap_can_break_stability(self):
        # m_cap = 1 hides 2*k_1 = 4, which escapes W_2
        s = profinite_sequence(P235, 2, m_cap=1)
        rep = escape_report(s, 2)
        assert rep.members == (IntegerPoint(1), IntegerPoint(2))
        assert not rep.stable

    def test_capped_but_still_stable(self):
        s = profinite_sequence(P235, 1, m_cap=1)
        rep = escape_report(s, 1)
        assert rep.members == (IntegerPoint(1),)
        assert rep.stable

    def test_wrong_sequence_kind(self):
        with pytest.raises(KindMismatch):
            escape_report(torus_sequence(5), 1)
