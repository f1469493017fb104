"""Characters: evaluation formulas, enumeration completeness, ordering."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from qcdense._intmath import primes_below
from qcdense.circle import UnitRational, circle_add, phi
from qcdense.duality import (
    CyclicChar,
    ProductChar,
    ProfiniteChar,
    SolenoidChar,
    TorusChar,
    annihilates,
    char_sort_key,
    complexity,
    enumerate_chars,
    escapes,
    eval_char,
    is_trivial,
    trivial_char,
)
from qcdense.errors import KindMismatch, UnsupportedBound
from qcdense.groups import (
    Cyclic,
    IntegerPoint,
    Product,
    ProductElem,
    Profinite,
    Solenoid,
    SolenoidPoint,
    Torus,
)

P235 = (2, 3, 5)


# --- independent enumeration oracles ---------------------------------------


def oracle_torus_chars(bound):
    return {TorusChar(m) for m in range(-bound, bound + 1) if m != 0}


def oracle_profinite_chars(bound, primes):
    out = set()
    for b in range(2, bound + 1):
        x = b
        for p in primes:
            while x % p == 0:
                x //= p
        if x != 1:
            continue
        for a in range(1, b):
            if gcd(a, b) == 1:
                out.add(ProfiniteChar(UnitRational(a, b)))
    return out


def oracle_solenoid_chars(bound):
    out = set()
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if a == 0 or gcd(abs(a), b) != 1:
                continue
            out.add(SolenoidChar(Fraction(a, b)))
    return out


def oracle_cyclic_chars(n, bound):
    out = set()
    for k in range(1, n):
        order = n // gcd(k, n)
        if order <= bound:
            out.add(CyclicChar(k, n))
    return out


# --- evaluation formulas ----------------------------------------------------


class TestEval:
    def test_torus_formula(self):
        assert eval_char(TorusChar(3), UnitRational(1, 6)) == UnitRational(1, 2)
        assert eval_char(TorusChar(-2), UnitRational(1, 6)) == UnitRational(2, 3)

    def test_profinite_formula(self):
        chi = ProfiniteChar(UnitRational(1, 3))
        assert eval_char(chi, IntegerPoint(2)) == UnitRational(2, 3)
        assert eval_char(chi, IntegerPoint(3)).is_zero()

    def test_solenoid_formula(self):
        chi = SolenoidChar(Fraction(1, 2))
        # chi(pi(r, h)) = phi(a r / b - a (h mod b) / b)
        assert eval_char(chi, SolenoidPoint(Fraction(1, 3))) == UnitRational(1, 6)
        assert eval_char(chi, SolenoidPoint(Fraction(-1))) == UnitRational(1, 2)

    def test_solenoid_kills_u(self):
        # well-defined on the quotient: the generator u = (1, v) pairs to 0
        for q in (Fraction(3), Fraction(1, 2), Fraction(-2, 5)):
            chi = SolenoidChar(q)
            u = SolenoidPoint(Fraction(1), IntegerPoint(1))
            assert eval_char(chi, u).is_zero()

    def test_solenoid_representation_independent(self):
        # pi(1, 0) = pi(0, -v): the value must not depend on representation
        for q in (Fraction(3), Fraction(1, 2), Fraction(-2, 5)):
            chi = SolenoidChar(q)
            a = eval_char(chi, SolenoidPoint(Fraction(1)))
            b = eval_char(chi, SolenoidPoint(0, IntegerPoint(-1)))
            assert a == b

    def test_cyclic_formula(self):
        assert eval_char(CyclicChar(2, 6), 2) == UnitRational(2, 3)

    def test_product_sums(self):
        G = Product((Torus(), Cyclic(4)))
        chi = ProductChar((TorusChar(1), CyclicChar(1, 4)))
        x = ProductElem((UnitRational(1, 2), 1))
        assert eval_char(chi, x) == UnitRational(3, 4)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            eval_char(TorusChar(1), IntegerPoint(1))
        with pytest.raises(KindMismatch):
            eval_char(ProfiniteChar(UnitRational(1, 2)), UnitRational(1, 2))

    @given(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=-(10**6), max_value=10**6),
    )
    def test_profinite_additive(self, a, m1, m2):
        if a == 0:
            return
        chi = ProfiniteChar(UnitRational(a, 12))
        x, y = IntegerPoint(m1), IntegerPoint(m2)
        lhs = eval_char(chi, IntegerPoint(m1 + m2))
        assert lhs == circle_add(eval_char(chi, x), eval_char(chi, y))

    @given(
        st.fractions(min_value=-20, max_value=20),
        st.fractions(min_value=-20, max_value=20),
    )
    def test_solenoid_additive_on_arc(self, r1, r2):
        chi = SolenoidChar(Fraction(3, 4))
        x, y = SolenoidPoint(r1), SolenoidPoint(r2)
        lhs = eval_char(chi, SolenoidPoint(r1 + r2))
        rhs = circle_add(eval_char(chi, x), eval_char(chi, y))
        assert lhs == rhs


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def _solenoid_reference(q: Fraction, r: Fraction, m: int) -> Fraction:
    # phi(q*r - a*(h mod b)/b) for the point pi(r, m*v), straight from the formula
    a, b = q.numerator, q.denominator
    return _mod1(q * r - Fraction(a * (m % b), b))


_solenoid_q = st.builds(
    Fraction, st.integers(min_value=-300, max_value=300), st.integers(min_value=1, max_value=300)
)
# real parts with numerators of solenoid-member size as well as small ones
_solenoid_r = st.builds(
    Fraction,
    st.one_of(
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=-(10**400), max_value=10**400),
    ),
    st.integers(min_value=1, max_value=10**6),
)


class TestSolenoidEvalReference:
    """The solenoid branch of eval_char against a Fraction evaluation of its formula."""

    @given(_solenoid_q, _solenoid_r, st.integers(min_value=-(10**30), max_value=10**30))
    def test_integer_fiber(self, q, r, m):
        value = eval_char(SolenoidChar(q), SolenoidPoint(r, IntegerPoint(m)))
        assert value.as_fraction() == _solenoid_reference(q, r, m)


class TestTrivialAndComplexity:
    def test_trivial_chars(self):
        assert is_trivial(trivial_char(Torus()))
        assert is_trivial(trivial_char(Profinite(P235)))
        assert is_trivial(trivial_char(Solenoid(P235)))
        assert is_trivial(trivial_char(Cyclic(5)))
        assert is_trivial(trivial_char(Product((Torus(), Cyclic(2)))))

    def test_complexity_measures(self):
        assert complexity(TorusChar(-7)) == 7
        assert complexity(ProfiniteChar(UnitRational(5, 12))) == 12
        assert complexity(SolenoidChar(Fraction(-7, 3))) == 7
        assert complexity(SolenoidChar(Fraction(1, 9))) == 9
        assert complexity(CyclicChar(2, 6)) == 3
        assert complexity(ProductChar((TorusChar(2), TorusChar(-5)))) == 5

    def test_escapes_and_annihilates(self):
        assert escapes(TorusChar(1), UnitRational(1, 2))
        assert not escapes(TorusChar(1), UnitRational(1, 8))
        assert annihilates(TorusChar(2), [UnitRational(1, 2), UnitRational(0, 1)])
        assert not annihilates(TorusChar(1), [UnitRational(1, 2)])


class TestEnumeration:
    def test_torus_order(self):
        out = enumerate_chars(Torus(), 2)
        assert [c.m for c in out] == [1, -1, 2, -2]

    def test_torus_completeness(self):
        assert set(enumerate_chars(Torus(), 7)) == oracle_torus_chars(7)

    def test_profinite_completeness(self):
        G = Profinite(P235)
        assert set(enumerate_chars(G, 5)) == oracle_profinite_chars(5, P235)
        # 6 is the largest bound fully covered by the working primes
        assert set(enumerate_chars(G, 6)) == oracle_profinite_chars(6, P235)

    def test_profinite_completeness_wide_prefix(self):
        P = tuple(primes_below(32))
        got = set(enumerate_chars(Profinite(P), 32))
        assert got == oracle_profinite_chars(32, P)

    def test_profinite_unsupported_bound(self):
        # a bound at or past a prime outside the prefix would need that
        # prime's characters, which this group cannot represent
        with pytest.raises(UnsupportedBound):
            enumerate_chars(Profinite(P235), 7)
        with pytest.raises(UnsupportedBound):
            enumerate_chars(Solenoid(P235), 11)

    def test_solenoid_completeness(self):
        G = Solenoid(P235)
        assert set(enumerate_chars(G, 5)) == oracle_solenoid_chars(5)

    @pytest.mark.parametrize("bound", list(range(1, 61)) + [200])
    def test_solenoid_order_is_the_sort_key(self, bound):
        # every a/b with 1 <= |a|, b <= bound, sorted: enumeration must emit it as is
        reference = [
            SolenoidChar(Fraction(s * a, b))
            for b in range(1, bound + 1)
            for a in range(1, bound + 1)
            if gcd(a, b) == 1
            for s in (1, -1)
        ]
        G = Solenoid(tuple(primes_below(max(bound + 1, 3))))
        assert enumerate_chars(G, bound) == sorted(reference, key=char_sort_key)

    def test_solenoid_integer_chars_present(self):
        out = enumerate_chars(Solenoid(P235), 3)
        assert SolenoidChar(Fraction(2)) in out
        assert SolenoidChar(Fraction(1, 3)) in out

    def test_cyclic_completeness(self):
        assert set(enumerate_chars(Cyclic(12), 4)) == oracle_cyclic_chars(12, 4)
        assert set(enumerate_chars(Cyclic(12), 12)) == {
            CyclicChar(k, 12) for k in range(1, 12)
        }

    def test_product_has_mixed_support(self):
        G = Product((Torus(), Cyclic(2)))
        out = enumerate_chars(G, 2)
        assert ProductChar((TorusChar(1), CyclicChar(1, 2))) in out
        assert ProductChar((TorusChar(0), CyclicChar(1, 2))) in out
        assert all(not is_trivial(c) for c in out)

    def test_product_completeness_oracle(self):
        G = Product((Cyclic(2), Cyclic(3)))
        out = set(enumerate_chars(G, 6))
        expected = {
            ProductChar((CyclicChar(i, 2), CyclicChar(j, 3)))
            for i in range(2)
            for j in range(3)
            if (i, j) != (0, 0)
        }
        assert out == expected

    def test_no_duplicates(self):
        for G, B in ((Torus(), 9), (Profinite(P235), 6), (Solenoid(P235), 6)):
            out = enumerate_chars(G, B)
            assert len(out) == len(set(out))

    def test_no_trivial(self):
        for G, B in ((Torus(), 5), (Solenoid(P235), 4), (Cyclic(8), 8)):
            assert all(not is_trivial(c) for c in enumerate_chars(G, B))

    def test_bound_respected(self):
        for G, B in ((Torus(), 11), (Profinite(P235), 6), (Solenoid(P235), 6)):
            assert all(complexity(c) <= B for c in enumerate_chars(G, B))

    def test_prefix_monotone_in_bound(self):
        from qcdense._intmath import primes_below

        P = tuple(primes_below(12))
        for G in (Torus(), Profinite(P), Solenoid(P), Cyclic(30)):
            small = enumerate_chars(G, 5)
            big = enumerate_chars(G, 10)
            assert big[: len(small)] == small

    def test_deterministic(self):
        G = Solenoid(P235)
        assert enumerate_chars(G, 6) == enumerate_chars(G, 6)

    def test_sorted_by_key(self):
        for G in (Torus(), Profinite(P235), Solenoid(P235)):
            out = enumerate_chars(G, 6)
            keys = [char_sort_key(c) for c in out]
            assert keys == sorted(keys)
