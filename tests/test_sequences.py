"""Sequence generators: frozen examples, dedup metadata, monotonicity."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcdense.circle import UnitRational
from qcdense.errors import IndexOutOfRange, KindMismatch, SizeLimit, ValidationError
from qcdense.groups import (
    Cyclic,
    IntegerPoint,
    Product,
    ProductElem,
    ProductWithFinite,
    Profinite,
    Solenoid,
    SolenoidPoint,
    Torus,
    k_sequence,
)
from qcdense.nonabelian import builtin_group
from qcdense.sequences import (
    ProductProjection,
    SolenoidToTorus,
    SuperSeq,
    fan,
    from_members,
    profinite_sequence,
    pushforward,
    solenoid_sequence,
    torus_sequence,
)

P235 = (2, 3, 5)


def oracle_profinite_values(primes, n_max, m_cap):
    """Direct evaluation of the member formula, kept naive on purpose."""
    out = set()
    for n in range(n_max + 1):
        k_n = k_sequence(primes, n)
        top = k_sequence(primes, n + 1)
        if m_cap is not None:
            top = min(top, m_cap)
        for m in range(1, top + 1):
            out.add(m * k_n)
    return out


class TestTorus:
    def test_single(self):
        s = torus_sequence(1)
        assert [x.to_string() for x in s.members] == ["1/2"]
        assert s.limit == UnitRational(0, 1)

    def test_three(self):
        s = torus_sequence(3)
        assert [x.to_string() for x in s.members] == ["1/2", "1/4", "1/6"]

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            torus_sequence(0)

    def test_arc_flags_all_true(self):
        assert all(torus_sequence(5).arc_flags)

    def test_prefix_monotone(self):
        small, big = torus_sequence(4), torus_sequence(9)
        assert big.members[: len(small.members)] == small.members


class TestProfinite:
    def test_example_depth_zero(self):
        s = profinite_sequence(P235, 0)
        assert [x.m for x in s.members] == [1, 2]

    def test_example_with_cap(self):
        s = profinite_sequence(P235, 1, 3)
        assert [x.m for x in s.members] == [1, 2, 4, 6]

    def test_dedup_metadata_keeps_both_derivations(self):
        s = profinite_sequence(P235, 1, 3)
        by_value = dict(zip((x.m for x in s.members), s.index_meta))
        # 2 = 2*k_0 = 1*k_1 inside the cap
        assert set(by_value[2]) == {(0, 2), (1, 1)}
        assert by_value[1] == ((0, 1),)

    def test_matches_oracle(self):
        for n_max, cap in ((0, None), (1, None), (2, 7), (2, 40)):
            s = profinite_sequence(P235, n_max, cap)
            assert {x.m for x in s.members} == oracle_profinite_values(P235, n_max, cap)

    def test_value_ascending(self):
        s = profinite_sequence(P235, 2, 50)
        values = [x.m for x in s.members]
        assert values == sorted(values)

    def test_limit_and_flags(self):
        s = profinite_sequence(P235, 1)
        assert s.limit == IntegerPoint(0)
        assert not any(s.arc_flags)

    def test_depth_precondition(self):
        with pytest.raises(IndexOutOfRange):
            profinite_sequence(P235, 3)

    def test_prefix_monotone_in_depth(self):
        small = profinite_sequence(P235, 1, 10)
        big = profinite_sequence(P235, 2, 10)
        assert big.members[: len(small.members)] == small.members

    def test_superset_monotone_in_cap(self):
        small = profinite_sequence(P235, 2, 2)
        big = profinite_sequence(P235, 2, 3)
        assert set(small.members) <= set(big.members)

    def test_cap_raise_can_insert_midstream(self):
        # raising m_cap is not a prefix extension: value 6 lands below 72
        small = profinite_sequence(P235, 2, 2)
        big = profinite_sequence(P235, 2, 3)
        assert big.members[: len(small.members)] != small.members

    def test_size_guard(self):
        with pytest.raises(SizeLimit):
            profinite_sequence(tuple(__import__("qcdense")._intmath.primes_below(50)), 9)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2), st.integers(min_value=1, max_value=60))
    def test_members_oracle_property(self, n_max, cap):
        s = profinite_sequence(P235, n_max, cap)
        assert {x.m for x in s.members} == oracle_profinite_values(P235, n_max, cap)


class TestSolenoid:
    def test_example(self):
        s = solenoid_sequence(P235, 0, 1)
        assert s.members == (
            SolenoidPoint(Fraction(-1)),
            SolenoidPoint(Fraction(-2)),
            SolenoidPoint(Fraction(1, 2)),
        )

    def test_limit_is_origin(self):
        s = solenoid_sequence(P235, 1, 3)
        assert s.limit == SolenoidPoint(Fraction(0))

    def test_arc_flags_all_true(self):
        s = solenoid_sequence(P235, 1, 4)
        assert all(s.arc_flags)

    def test_meta_blocks(self):
        s = solenoid_sequence(P235, 0, 2)
        kinds = [m[0] for m in s.index_meta]
        assert kinds == ["profinite_image", "profinite_image", "arc", "arc"]

    def test_images_match_profinite_members(self):
        ps = profinite_sequence(P235, 1, 5)
        ss = solenoid_sequence(P235, 1, 1, 5)
        images = tuple(
            x for x, m in zip(ss.members, ss.index_meta) if m[0] == "profinite_image"
        )
        assert images == tuple(SolenoidPoint(Fraction(-x.m)) for x in ps.members)

    def test_n_positive(self):
        with pytest.raises(ValidationError):
            solenoid_sequence(P235, 0, 0)


class TestFromMembers:
    def test_wraps_and_defaults_zero_limit(self):
        s = from_members(Torus(), [UnitRational(1, 3)])
        assert s.limit == UnitRational(0, 1)
        assert s.generator == "members"

    def test_rejects_duplicate(self):
        with pytest.raises(ValidationError):
            from_members(Torus(), [UnitRational(1, 3), UnitRational(2, 6)])

    def test_rejects_limit_among_members(self):
        with pytest.raises(ValidationError):
            from_members(Torus(), [UnitRational(0, 1)])


class TestFan:
    def test_two_torus_parts(self):
        part = torus_sequence(1)
        f = fan((part, part))
        assert f.group == Product((Torus(), Torus()))
        assert f.members == (
            ProductElem((UnitRational(1, 2), UnitRational(0, 1))),
            ProductElem((UnitRational(0, 1), UnitRational(1, 2))),
        )
        assert f.limit == ProductElem((UnitRational(0, 1), UnitRational(0, 1)))

    def test_single_part_copies_content(self):
        part = torus_sequence(3)
        f = fan((part,))
        assert [x.coords[0] for x in f.members] == list(part.members)

    def test_meta_carries_part_index(self):
        f = fan((torus_sequence(2), torus_sequence(1)))
        assert [m[0] for m in f.index_meta] == [0, 0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            fan(())

    def test_mixed_kinds(self):
        f = fan((torus_sequence(1), profinite_sequence(P235, 0)))
        assert f.group == Product((Torus(), Profinite(P235)))
        assert len(f.members) == 3

    def test_product_part_rejected(self):
        inner = fan((torus_sequence(4), torus_sequence(3)))
        with pytest.raises(ValidationError, match="product"):
            fan((torus_sequence(5), inner))

    def test_product_with_finite_part_rejected(self):
        G = ProductWithFinite(Torus(), builtin_group("A5"))
        part = from_members(G, [ProductElem((UnitRational(1, 2), G.finite.identity))])
        with pytest.raises(ValidationError, match="product_with_finite"):
            fan((part,))


class TestPushforward:
    def test_solenoid_arc_to_torus(self):
        s = solenoid_sequence(P235, 0, 4)
        t = pushforward(s, SolenoidToTorus())
        assert t.group == Torus()
        # S' members land on integers = 0, absorbed into the limit
        assert set(t.members) == set(torus_sequence(4).members)

    def test_absorption_into_limit(self):
        s = from_members(Solenoid(P235), [SolenoidPoint(Fraction(-2)), SolenoidPoint(Fraction(1, 3))])
        t = pushforward(s, SolenoidToTorus())
        assert t.members == (UnitRational(1, 3),)

    def test_product_projection(self):
        f = fan((torus_sequence(2), torus_sequence(3)))
        t = pushforward(f, ProductProjection(0))
        assert t.group == Torus()
        assert set(t.members) == set(torus_sequence(2).members)

    def test_projection_dedups(self):
        f = fan((torus_sequence(2), torus_sequence(2)))
        t = pushforward(f, ProductProjection(1))
        assert len(t.members) == 2

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            pushforward(torus_sequence(2), SolenoidToTorus())

    def test_torus_images_exact(self):
        # the arc block maps bijectively onto the halving family
        s = solenoid_sequence(P235, 1, 7)
        t = pushforward(s, SolenoidToTorus())
        assert sorted(x.to_string() for x in t.members) == sorted(
            x.to_string() for x in torus_sequence(7).members
        )


class TestInvariants:
    def test_members_exclude_limit_enforced(self):
        with pytest.raises(ValidationError):
            SuperSeq(
                group=Torus(),
                members=(UnitRational(0, 1),),
                limit=UnitRational(0, 1),
                index_meta=(0,),
                arc_flags=(True,),
                generator="bad",
                params=(),
            )

    def test_meta_alignment_enforced(self):
        with pytest.raises(ValidationError):
            SuperSeq(
                group=Torus(),
                members=(UnitRational(1, 2),),
                limit=UnitRational(0, 1),
                index_meta=(),
                arc_flags=(True,),
                generator="bad",
                params=(),
            )
