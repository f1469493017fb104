"""Finite groups, abelian quotients, certification with a finite factor."""

import hashlib
import json
import time
from itertools import product as iter_product

import pytest

from qcdense.circle import UnitRational, phi
from qcdense.duality import (
    FiniteAbelianChar,
    ProductChar,
    TorusChar,
    enumerate_chars,
    eval_char,
    is_trivial,
)
from qcdense.errors import ValidationError
from qcdense.groups import ProductElem, ProductWithFinite, Profinite, Torus
from qcdense.nonabelian import (
    FiniteGroup,
    abelianization,
    builtin_group,
    certify_qc_with_finite_factor,
    cyclic_group,
    derived_subgroup,
    dihedral_group,
    finite_abelian_chars,
    from_permutations,
    is_perfect,
    load_finite_group,
)
from qcdense.sequences import from_members, profinite_sequence, torus_sequence
from qcdense.serialize import canonical_dumps, certificate_to_json

P235 = (2, 3, 5)


# --- independent oracles ------------------------------------------------------


def oracle_derived(F):
    """Commutator set closed under products only; inverses are powers."""
    comms = {
        F.mul(F.inv(x), F.mul(F.inv(y), F.mul(x, y)))
        for x in range(F.order)
        for y in range(F.order)
    }
    grown = set(comms) | {F.identity}
    changed = True
    while changed:
        changed = False
        for a in list(grown):
            for b in list(grown):
                c = F.mul(a, b)
                if c not in grown:
                    grown.add(c)
                    changed = True
    return frozenset(grown)


def verify_abelianization(F, desc):
    """First-isomorphism check of the claimed invariant factor quotient.

    The projection must be a surjective homomorphism onto the claimed sum
    whose kernel is the independently computed derived subgroup; together
    with the divisibility chain that pins the decomposition uniquely.
    """
    D = oracle_derived(F)
    factors = desc.factors
    assert all(f >= 2 for f in factors)
    for i in range(1, len(factors)):
        assert factors[i] % factors[i - 1] == 0
    size = 1
    for f in factors:
        size *= f
    assert size == F.order // len(D)
    proj = desc.proj
    assert len(proj) == F.order
    zero = tuple(0 for _ in factors)
    assert proj[F.identity] == zero
    assert {x for x in range(F.order) if proj[x] == zero} == set(D)
    assert len(set(proj)) == size
    for x in range(F.order):
        px = proj[x]
        for y in range(F.order):
            got = proj[F.mul(x, y)]
            want = tuple((px[i] + proj[y][i]) % factors[i] for i in range(len(factors)))
            assert got == want


def greedy_generators(F):
    gens = []
    closed = {F.identity}
    for x in range(F.order):
        if x in closed:
            continue
        gens.append(x)
        frontier = [F.identity]
        closed = {F.identity}
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = F.mul(a, g)
                    if b not in closed:
                        closed.add(b)
                        nxt.append(b)
            frontier = nxt
        if len(closed) == F.order:
            break
    return gens


def count_homs_to_cyclic(F, m):
    """Homomorphisms F -> Z/m by generator assignment, fully re-verified."""
    gens = greedy_generators(F)
    count = 0
    for assign in iter_product(range(m), repeat=len(gens)):
        val = {F.identity: 0}
        frontier = [F.identity]
        ok = True
        while frontier and ok:
            nxt = []
            for x in frontier:
                for g, a in zip(gens, assign):
                    y = F.mul(x, g)
                    w = (val[x] + a) % m
                    if y in val:
                        if val[y] != w:
                            ok = False
                            break
                    else:
                        val[y] = w
                        nxt.append(y)
                if not ok:
                    break
            frontier = nxt
        if not ok or len(val) != F.order:
            continue
        if all(
            (val[F.mul(x, y)] - val[x] - val[y]) % m == 0
            for x in range(F.order)
            for y in range(F.order)
        ):
            count += 1
    return count


def cyclic_product(orders):
    """Z/n1 x ... x Z/nk tabulated over its elements in lexicographic order."""
    elems = list(iter_product(*[range(n) for n in orders]))
    index = {e: i for i, e in enumerate(elems)}
    table = [
        [index[tuple((a + b) % n for a, b, n in zip(x, y, orders))] for y in elems]
        for x in elems
    ]
    return FiniteGroup("x".join(f"Z{n}" for n in orders), table)


def invariant_factors(orders):
    """Ascending invariant factors from the prime-power parts of each order."""
    powers = {}
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    width = max((len(v) for v in powers.values()), default=0)
    factors = [1] * width
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[width - 1 - i] *= q
    return tuple(factors)


# --- tables and constructors --------------------------------------------------


class TestFiniteGroup:
    def test_orders(self):
        for name, order in [("A5", 60), ("S4", 24), ("A4", 12), ("S3", 6),
                            ("Q8", 8), ("D4", 8), ("D3", 6), ("C7", 7)]:
            assert builtin_group(name).order == order

    def test_q8_element_orders(self):
        Q = builtin_group("Q8")
        hist = {}
        for x in range(Q.order):
            hist[Q.element_order(x)] = hist.get(Q.element_order(x), 0) + 1
        assert hist == {1: 1, 2: 1, 4: 6}

    def test_a5_element_orders(self):
        A5 = builtin_group("A5")
        hist = {}
        for x in range(A5.order):
            hist[A5.element_order(x)] = hist.get(A5.element_order(x), 0) + 1
        assert hist == {1: 1, 2: 15, 3: 20, 5: 24}

    def test_inverses(self):
        D = dihedral_group(5)
        for x in range(D.order):
            assert D.mul(x, D.inv(x)) == D.identity
            assert D.mul(D.inv(x), x) == D.identity

    def test_immutable(self):
        C = cyclic_group(3)
        with pytest.raises(AttributeError):
            C.order = 5

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            FiniteGroup("bad", [[0, 1], [1]])

    def test_rejects_repeated_row_entry(self):
        with pytest.raises(ValidationError):
            FiniteGroup("bad", [[0, 0], [1, 1]])

    def test_rejects_missing_identity(self):
        with pytest.raises(ValidationError):
            FiniteGroup("bad", [[0, 1, 2], [2, 0, 1], [1, 2, 0]])

    def test_rejects_non_associative_loop(self):
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(ValidationError):
            FiniteGroup("loop5", table)

    def test_rejects_bad_generator(self):
        with pytest.raises(ValidationError):
            from_permutations("bad", [(0, 0, 1)], 3)

    def test_dihedral_needs_three(self):
        with pytest.raises(ValidationError):
            builtin_group("D2")

    def test_unknown_builtin(self):
        with pytest.raises(ValidationError):
            builtin_group("M11")

    def test_labels_default_to_indices(self):
        C = cyclic_group(4)
        assert C.label(3) == "3"
        S3 = builtin_group("S3")
        assert S3.label(S3.identity) == repr((0, 1, 2))


class TestLoadFiniteGroup:
    def test_table_form(self):
        F = load_finite_group({"name": "C3", "order": 3,
                               "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
        assert F.order == 3
        assert F == cyclic_group(3)

    def test_order_mismatch(self):
        with pytest.raises(ValidationError):
            load_finite_group({"order": 4, "table": [[0, 1], [1, 0]]})

    def test_generator_form(self):
        F = load_finite_group({"name": "S3", "degree": 3,
                               "generators": [[1, 0, 2], [1, 2, 0]]})
        assert F.order == 6

    def test_generator_form_needs_degree(self):
        with pytest.raises(ValidationError):
            load_finite_group({"generators": [[1, 0]]})

    def test_needs_some_form(self):
        with pytest.raises(ValidationError):
            load_finite_group({"name": "empty"})


# --- derived subgroups ---------------------------------------------------------


class TestDerived:
    def test_known_sizes(self):
        for name, size in [("S3", 3), ("A4", 4), ("S4", 12), ("Q8", 2),
                           ("D4", 2), ("A5", 60), ("C12", 1)]:
            assert len(derived_subgroup(builtin_group(name))) == size

    def test_matches_oracle(self):
        for name in ["S3", "A4", "S4", "Q8", "D4", "D5", "D6", "C8", "A5"]:
            F = builtin_group(name)
            assert derived_subgroup(F) == oracle_derived(F)

    def test_perfect(self):
        assert is_perfect(builtin_group("A5"))
        assert is_perfect(cyclic_group(1))
        for name in ["S3", "S4", "A4", "Q8", "D4", "C2", "C12"]:
            assert not is_perfect(builtin_group(name))


# --- abelianization -------------------------------------------------------------


class TestAbelianization:
    def test_known_factors(self):
        cases = [("S3", (2,)), ("A4", (3,)), ("S4", (2,)), ("Q8", (2, 2)),
                 ("D4", (2, 2)), ("C12", (12,)), ("A5", ()), ("D5", (2,)),
                 ("D6", (2, 2)), ("C1", ())]
        for name, factors in cases:
            assert abelianization(builtin_group(name)).factors == factors

    def test_projection_is_the_quotient_map(self):
        for name in ["S3", "A4", "S4", "Q8", "D4", "D5", "D6", "C12", "A5", "C1"]:
            F = builtin_group(name)
            verify_abelianization(F, abelianization(F))

    def test_elementary_abelian_2_7(self):
        # 2^7 elements, every nonidentity one of order 2
        n = 2 ** 7
        F = FiniteGroup("Z2^7", [[x ^ y for y in range(n)] for x in range(n)])
        start = time.perf_counter()
        desc = abelianization(F)
        assert time.perf_counter() - start < 1.0
        assert desc.factors == (2,) * 7
        verify_abelianization(F, desc)

    @pytest.mark.parametrize("orders, factors", [
        ((6, 4), (2, 12)), ((2, 4, 8), (2, 4, 8)), ((3, 3, 3), (3, 3, 3)),
        ((4, 2), (2, 4)), ((9, 3, 2), (3, 18)), ((2, 2, 3, 5), (2, 30)),
        ((5, 25), (5, 25)),
    ])
    def test_cyclic_products(self, orders, factors):
        assert invariant_factors(orders) == factors
        F = cyclic_product(orders)
        desc = abelianization(F)
        assert desc.factors == factors
        verify_abelianization(F, desc)

    def test_builtin_projections_pinned(self):
        # the coordinates fix what stored coefficients mean, so they may not move
        names = ([f"C{n}" for n in range(1, 61)] + [f"D{n}" for n in range(3, 41)]
                 + ["S3", "A4", "S4", "Q8", "A5"])
        rows = []
        for name in names:
            desc = abelianization(builtin_group(name))
            rows.append([name, list(desc.factors), [list(p) for p in desc.proj]])
        blob = json.dumps(rows, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "787859bbfd766d0d32f28aefbd5b2fec5060c6250458145842500351900cb965"
        )

    def test_hom_counts(self):
        # homs into a big enough cyclic group count the abelian quotient
        for name in ["C1", "C2", "C6", "C12", "S3", "A4", "S4", "Q8",
                     "D3", "D4", "D5", "D6"]:
            F = builtin_group(name)
            assert count_homs_to_cyclic(F, F.order) == abelianization(F).order

    def test_hom_counts_perfect(self):
        A5 = builtin_group("A5")
        assert count_homs_to_cyclic(A5, 12) == 1

    def test_quotient_chars_count(self):
        desc = abelianization(builtin_group("Q8"))
        chars = finite_abelian_chars(desc)
        assert len(chars) == 3
        assert all(not is_trivial(z) for z in chars)
        assert len(set(chars)) == 3

    def test_quotient_chars_empty_for_perfect(self):
        assert finite_abelian_chars(abelianization(builtin_group("A5"))) == []

    def test_char_evaluation(self):
        S3 = builtin_group("S3")
        desc = abelianization(S3)
        (zeta,) = finite_abelian_chars(desc)
        for x in range(S3.order):
            want = UnitRational(desc.proj[x][0], 2)
            assert eval_char(zeta, x) == want
        # the sign character: transpositions map to a half turn
        halves = sum(1 for x in range(6) if eval_char(zeta, x) == UnitRational(1, 2))
        assert halves == 3


# --- certification with a finite factor -----------------------------------------


class TestFiniteFactor:
    def test_perfect_factor_certifies(self):
        A5 = builtin_group("A5")
        s = torus_sequence(30)
        cert = certify_qc_with_finite_factor(s, A5, 10)
        assert cert.certified
        assert cert.group == ProductWithFinite(Torus(), A5)
        assert cert.coverage == "full"
        assert len(cert.records) == 20
        for rec in cert.records:
            assert isinstance(rec.character, ProductChar)
            chi_a, zeta = rec.character.components
            assert not is_trivial(chi_a)
            assert is_trivial(zeta)
            assert rec.witness.coords[1] == A5.identity
            assert rec.value == UnitRational(1, 2)

    def test_abelian_chars_in_enumeration_order(self):
        A5 = builtin_group("A5")
        cert = certify_qc_with_finite_factor(torus_sequence(20), A5, 5)
        got = [rec.character.components[0] for rec in cert.records]
        assert got == enumerate_chars(Torus(), 5)

    def test_nonperfect_factor_fails_on_lifted_char(self):
        S3 = builtin_group("S3")
        cert = certify_qc_with_finite_factor(torus_sequence(30), S3, 10)
        assert not cert.certified
        assert cert.records == ()
        chi_a, zeta = cert.failed_character.components
        assert is_trivial(chi_a)
        assert zeta.coeffs == (1,)
        assert zeta.factors == (2,)

    def test_trivial_factor_reduces_to_abelian(self):
        C1 = cyclic_group(1)
        cert = certify_qc_with_finite_factor(torus_sequence(20), C1, 8)
        assert cert.certified
        assert len(cert.records) == len(enumerate_chars(Torus(), 8))

    def test_profinite_base(self):
        A5 = builtin_group("A5")
        s = profinite_sequence(P235, 2)
        cert = certify_qc_with_finite_factor(s, A5, 5)
        assert cert.certified
        assert cert.group == ProductWithFinite(Profinite(P235), A5)
        for rec in cert.records:
            assert eval_char(rec.character, rec.witness) == rec.value

    def test_failure_in_the_abelian_part_still_fails(self):
        A5 = builtin_group("A5")
        s = from_members(Torus(), [phi("1/2")], name="singleton")
        cert = certify_qc_with_finite_factor(s, A5, 2)
        assert not cert.certified
        chi_a, zeta = cert.failed_character.components
        assert chi_a == TorusChar(2)
        assert is_trivial(zeta)

    def test_spec_names_the_factor(self):
        A5 = builtin_group("A5")
        cert = certify_qc_with_finite_factor(torus_sequence(5), A5, 2)
        assert ("finite_factor", "A5") in cert.sequence_spec[1]

    def test_bytes_reproducible(self):
        A5 = builtin_group("A5")
        a = certify_qc_with_finite_factor(torus_sequence(40), A5, 20)
        b = certify_qc_with_finite_factor(torus_sequence(40), A5, 20)
        assert canonical_dumps(certificate_to_json(a)) == canonical_dumps(
            certificate_to_json(b)
        )
