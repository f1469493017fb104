"""Group descriptors, profinite towers, solenoid points, zero elements."""

from fractions import Fraction

import pytest

from qcdense.circle import UnitRational
from qcdense.errors import IndexOutOfRange, KindMismatch, ValidationError
from qcdense.groups import (
    Cyclic,
    IntegerPoint,
    Product,
    ProductElem,
    Profinite,
    Solenoid,
    SolenoidPoint,
    Torus,
    group_zero,
    in_Wn,
    k_sequence,
    residue_mod,
)

P235 = (2, 3, 5)


class TestDescriptors:
    def test_primes_validated(self):
        with pytest.raises(ValidationError):
            Profinite((4, 3))
        with pytest.raises(ValidationError):
            Profinite(())
        with pytest.raises(ValidationError):
            Solenoid((2, 2))

    def test_cyclic_validated(self):
        with pytest.raises(ValidationError):
            Cyclic(0)

    def test_frozen_and_comparable(self):
        assert Profinite(P235) == Profinite((2, 3, 5))
        assert Torus() == Torus()
        assert Product((Torus(), Cyclic(4))) == Product((Torus(), Cyclic(4)))


class TestKSequence:
    def test_known_values(self):
        assert k_sequence(P235, 0) == 1
        assert k_sequence(P235, 1) == 2
        assert k_sequence(P235, 2) == 36
        assert k_sequence(P235, 3) == 27000

    def test_oracle_formula(self):
        # independent recomputation
        for n in range(4):
            prod = 1
            for p in P235[:n]:
                prod *= p
            assert k_sequence(P235, n) == prod**n

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            k_sequence(P235, 4)
        with pytest.raises(IndexOutOfRange):
            k_sequence(P235, -1)

    def test_divisibility_chain(self):
        # each k_n divides k_{n+1}: (p0..p_{n-1})^n | (p0..p_n)^{n+1}
        P = (2, 3, 5, 7, 11)
        for n in range(5):
            assert k_sequence(P, n + 1) % k_sequence(P, n) == 0


class TestResidueMod:
    def test_integer_point(self):
        assert residue_mod(IntegerPoint(17), 12) == 5
        assert residue_mod(IntegerPoint(-1), 12) == 11
        assert residue_mod(IntegerPoint(5), 1) == 0

class TestWn:
    def test_w0_is_everything(self):
        assert in_Wn(IntegerPoint(123), P235, 0)

    def test_known_members(self):
        assert in_Wn(IntegerPoint(2), P235, 1)
        assert not in_Wn(IntegerPoint(1), P235, 1)
        assert in_Wn(IntegerPoint(36), P235, 2)
        assert not in_Wn(IntegerPoint(6), P235, 2)
        assert in_Wn(IntegerPoint(0), P235, 3)

    def test_kn_generates_wn(self):
        for n in range(4):
            assert in_Wn(IntegerPoint(k_sequence(P235, n)), P235, n)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            in_Wn(IntegerPoint(0), P235, 4)


class TestSolenoidPoint:
    def test_integer_fiber_folds_into_r(self):
        x = SolenoidPoint(Fraction(1, 2), IntegerPoint(3))
        assert x.r == Fraction(-5, 2)
        assert x.h == IntegerPoint(0)

    def test_shift_identity(self):
        # pi(0, v) = -pi(1, 0), equivalently pi(0, v) = pi(-1, 0)
        assert SolenoidPoint(0, IntegerPoint(1)) == SolenoidPoint(Fraction(-1))
        assert SolenoidPoint(Fraction(1)) == SolenoidPoint(0, IntegerPoint(-1))

    def test_distinct_integer_translates(self):
        assert SolenoidPoint(Fraction(-1)) != SolenoidPoint(Fraction(-2))
        assert SolenoidPoint(Fraction(-1)) != SolenoidPoint(Fraction(0))

    def test_hash_respects_equality(self):
        a = SolenoidPoint(0, IntegerPoint(1))
        b = SolenoidPoint(Fraction(-1))
        assert a == b and hash(a) == hash(b)

    def test_set_of_translates_is_faithful(self):
        pts = {SolenoidPoint(Fraction(-w)) for w in range(100)}
        assert len(pts) == 100

    def test_fiber_must_be_an_integer_point(self):
        for h in (UnitRational(1, 2), 3, ProductElem((IntegerPoint(1),))):
            with pytest.raises(KindMismatch):
                SolenoidPoint(Fraction(1, 2), h)

    def test_fiber_reads_one_shared_zero(self):
        a, b = SolenoidPoint(Fraction(1, 3)), SolenoidPoint(0, IntegerPoint(4))
        assert a.h == IntegerPoint(0) and a.h is b.h

    def test_display_reduces(self):
        assert SolenoidPoint(Fraction(-1)).display_r() == 0
        assert SolenoidPoint(Fraction(7, 2)).display_r() == Fraction(1, 2)


class TestGroupZero:
    def test_zero_elements(self):
        assert group_zero(Torus()) == UnitRational(0, 1)
        assert group_zero(Cyclic(6)) == 0
        assert group_zero(Profinite(P235)) == IntegerPoint(0)
        assert group_zero(Solenoid(P235)) == SolenoidPoint(Fraction(0))
        assert group_zero(Product((Torus(), Cyclic(4)))) == ProductElem((UnitRational(0, 1), 0))
