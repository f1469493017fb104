"""Finite groups, their abelian quotients, and density in A x F.

Characters of a compact group A x F with F finite all arise as pairs: a
character of A together with a character of F, and the latter factors
through the abelianization F / [F, F].  Certification of a member family
E x {e} therefore splits: pairs with a nonzero A-part inherit the A-side
witness, while a pair supported on a nontrivial finite character vanishes
on every member and fails.  Perfect finite factors have no nontrivial
finite characters, so the A-side certificate carries over whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .certify import Certificate, _certify
from .duality import (
    FiniteAbelianChar,
    ProductChar,
    char_sort_key,
    enumerate_chars,
    trivial_char,
)
from .errors import InvariantViolation, SizeLimit, ValidationError
from .groups import ProductWithFinite, group_zero
from .sequences import SuperSeq

DERIVED_SIZE_LIMIT = 10_000


class FiniteGroup:
    """A finite group as a multiplication table over indices 0..order-1."""

    __slots__ = ("name", "order", "table", "identity", "_inv", "_elem_labels")

    def __init__(self, name: str, table, labels=None):
        table = tuple(tuple(row) for row in table)
        order = len(table)
        if any(len(row) != order for row in table):
            raise ValidationError("multiplication table must be square")
        full = frozenset(range(order))
        for row in table:
            if frozenset(row) != full:
                raise ValidationError("table rows must be permutations")
        for j in range(order):
            if frozenset(row[j] for row in table) != full:
                raise ValidationError("table columns must be permutations")
        identity = None
        for e in range(order):
            if all(table[e][x] == x and table[x][e] == x for x in range(order)):
                identity = e
                break
        if identity is None:
            raise ValidationError("table has no identity element")
        inv = [None] * order
        for x in range(order):
            for y in range(order):
                if table[x][y] == identity:
                    inv[x] = y
                    break
        if any(i is None for i in inv):
            raise ValidationError("table has a non-invertible element")
        if order <= 256:
            for a in range(order):
                for b in range(order):
                    ab = table[a][b]
                    for c in range(order):
                        if table[ab][c] != table[a][table[b][c]]:
                            raise ValidationError("table is not associative")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "_inv", tuple(inv))
        object.__setattr__(self, "_elem_labels", labels)

    def __setattr__(self, key, value):
        raise AttributeError("FiniteGroup is immutable")

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        # element labels are decorative only
        return self.name == other.name and self.table == other.table

    def __hash__(self):
        return hash((self.name, self.order, self.table[0]))

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self._inv[x]

    def element_order(self, x: int) -> int:
        n, acc = 1, x
        while acc != self.identity:
            acc = self.table[acc][x]
            n += 1
        return n

    def label(self, x: int) -> str:
        if self._elem_labels is not None:
            return self._elem_labels[x]
        return str(x)


def from_permutations(name: str, generators, degree: int) -> FiniteGroup:
    """Close permutation generators into a group and tabulate it."""
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise ValidationError(f"{g} is not a permutation of {degree} points")
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    table = [
        [index[tuple(a[b[i]] for i in range(degree))] for b in elems] for a in elems
    ]
    labels = tuple(repr(p) for p in elems)
    return FiniteGroup(name, table, labels)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic order must be positive")
    return FiniteGroup(f"C{n}", [[(i + j) % n for j in range(n)] for i in range(n)])


def _quaternion_group() -> FiniteGroup:
    # elements: sign s in {+1, -1} times axis in {1, i, j, k}
    axes = ["1", "i", "j", "k"]
    mult = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elems = [(s, a) for a in axes for s in (1, -1)]
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for s1, a1 in elems:
        row = []
        for s2, a2 in elems:
            s3, a3 = mult[(a1, a2)]
            row.append(index[(s1 * s2 * s3, a3)])
        table.append(row)
    labels = tuple(("" if s > 0 else "-") + a for s, a in elems)
    return FiniteGroup("Q8", table, labels)


def dihedral_group(n: int) -> FiniteGroup:
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((n - i) % n for i in range(n))
    return from_permutations(f"D{n}", [rot, flip], n)


def builtin_group(name: str) -> FiniteGroup:
    """Shipped groups: A5, S3, S4, A4, Q8, Dn and Cn families."""
    if name == "A5":
        return from_permutations("A5", [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], 5)
    if name == "A4":
        return from_permutations("A4", [(1, 2, 0, 3), (0, 2, 3, 1)], 4)
    if name == "S4":
        return from_permutations("S4", [(1, 0, 2, 3), (1, 2, 3, 0)], 4)
    if name == "S3":
        return from_permutations("S3", [(1, 0, 2), (1, 2, 0)], 3)
    if name == "Q8":
        return _quaternion_group()
    if name.startswith("D") and name[1:].isdigit():
        n = int(name[1:])
        if n < 3:
            raise ValidationError("dihedral groups start at D3")
        return dihedral_group(n)
    if name.startswith("C") and name[1:].isdigit():
        return cyclic_group(int(name[1:]))
    raise ValidationError(f"unknown built-in group {name!r}")


def load_finite_group(data: dict) -> FiniteGroup:
    """Load from {"order": n, "table": [[..]]} or generator permutations."""
    name = data.get("name", "loaded")
    if "table" in data:
        table = data["table"]
        if data.get("order") not in (None, len(table)):
            raise ValidationError("declared order does not match the table")
        return FiniteGroup(name, table)
    if "generators" in data:
        degree = data.get("degree")
        if degree is None:
            raise ValidationError("generator format needs a degree")
        return from_permutations(name, data["generators"], degree)
    raise ValidationError("finite group data needs a table or generators")


# ---------------------------------------------------------------------------
# derived subgroup and abelianization


def _closure(F: FiniteGroup, seed) -> frozenset:
    got = set(seed)
    got.add(F.identity)
    frontier = list(got)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(got):
                for z in (F.mul(x, y), F.mul(y, x)):
                    if z not in got:
                        got.add(z)
                        nxt.append(z)
        frontier = nxt
    return frozenset(got)


def derived_subgroup(F: FiniteGroup) -> frozenset:
    """The subgroup generated by all commutators of F."""
    if F.order > DERIVED_SIZE_LIMIT:
        raise SizeLimit(f"derived subgroup supported up to order {DERIVED_SIZE_LIMIT}")
    comms = set()
    for x in range(F.order):
        xi = F.inv(x)
        for y in range(F.order):
            comms.add(F.mul(F.mul(F.inv(y), xi), F.mul(y, x)))
    return _closure(F, comms)


def is_perfect(F: FiniteGroup) -> bool:
    return len(derived_subgroup(F)) == F.order


@dataclass(frozen=True)
class FiniteAbelianDesc:
    """An abelian quotient in invariant factors, with the projection.

    factors are ascending with each dividing the next; proj[x] gives the
    coordinates of the image of element x of the source group.
    """

    factors: tuple[int, ...]
    proj: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n


def _order_mod(x: int, span, mul) -> int:
    """Least n >= 1 with x^n in span; span holds the identity."""
    n, acc = 1, x
    while acc not in span:
        acc = mul(acc, x)
        n += 1
    return n


def _decompose(elems, mul, identity) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """Invariant factors (descending) of a finite abelian group, with coordinates.

    The span of the cyclic summands found so far starts at the identity.
    Each round takes the element outside it of largest order M modulo the
    span (ties to the smallest index) and lifts it within its coset to an
    element of order exactly M.  A cyclic subgroup of largest order in the
    quotient splits off, so such a lift exists and meets the span
    trivially; every coordinate tuple then gains the exponent a < M.
    """
    coords: dict[int, tuple[int, ...]] = {identity: ()}
    trivial = (identity,)
    factors = []
    while len(coords) < len(elems):
        g = max(
            (x for x in elems if x not in coords),
            key=lambda x: (_order_mod(x, coords, mul), -x),
        )
        M = _order_mod(g, coords, mul)
        for s in sorted(coords):
            lift = mul(g, s)
            if _order_mod(lift, trivial, mul) == M:
                break
        else:
            raise InvariantViolation("no lift of a largest-order coset splits off")
        grown: dict[int, tuple[int, ...]] = {}
        power = identity
        for a in range(M):
            for s, c in coords.items():
                grown[mul(power, s)] = c + (a,)
            power = mul(power, lift)
        coords = grown
        factors.append(M)
    return tuple(factors), coords


def abelianization(F: FiniteGroup) -> FiniteAbelianDesc:
    """The quotient F / [F, F] in ascending invariant factors.

    Each coset of the derived subgroup is named by its least element; the
    quotient multiplies representatives and maps the product back to its
    coset's name, and ``_decompose`` splits that abelian group.
    """
    D = derived_subgroup(F)
    coset_rep: dict[int, int] = {}
    for x in range(F.order):
        if x in coset_rep:
            continue
        members = sorted(F.mul(x, d) for d in D)
        rep = members[0]
        for y in members:
            coset_rep[y] = rep
    reps = sorted(set(coset_rep.values()))
    factors_desc, coords = _decompose(
        reps, lambda a, b: coset_rep[F.mul(a, b)], coset_rep[F.identity]
    )
    # ascending divisibility order, coordinates permuted to match
    order_idx = list(range(len(factors_desc)))[::-1]
    factors = tuple(factors_desc[i] for i in order_idx)
    proj = tuple(
        tuple(coords[coset_rep[x]][i] for i in order_idx) for x in range(F.order)
    )
    return FiniteAbelianDesc(factors=factors, proj=proj)


def finite_abelian_chars(desc: FiniteAbelianDesc) -> list[FiniteAbelianChar]:
    """All nontrivial characters of the quotient, deterministically ordered."""
    if not desc.factors:
        return []
    out = []
    for coeffs in iter_product(*[range(n) for n in desc.factors]):
        if any(coeffs):
            out.append(FiniteAbelianChar(coeffs, desc.factors, desc.proj))
    return sorted(out, key=char_sort_key)


# ---------------------------------------------------------------------------
# certification in A x F


def certify_qc_with_finite_factor(
    seq: SuperSeq, F: FiniteGroup, bound: int
) -> Certificate:
    """Certify E x {e} inside A x F for the abelian sequence E in A.

    Characters are pairs; the finite side is enumerated completely through
    the abelianization while the abelian side sweeps up to the bound.  Any
    pair with a trivial abelian part but nontrivial finite part annihilates
    every member, so nonperfect F fails immediately and by design.  For
    perfect F each abelian record carries over with the witness (w, e).
    """
    A = seq.group
    G = ProductWithFinite(A, F)
    spec = (seq.generator, seq.params + (("finite_factor", F.name),))
    finite_nontrivial = finite_abelian_chars(abelianization(F))
    # enumerated first so that an unsupported bound raises whatever F is
    abelian_chars = enumerate_chars(A, bound)
    if finite_nontrivial:
        failed = ProductChar((trivial_char(A), finite_nontrivial[0]))
        return Certificate(
            group=G, sequence_spec=spec, bound=bound, mode="qc", status="failed",
            failed_character=failed, records=(),
        )
    trivial_fin = FiniteAbelianChar((), (), ())
    items = ((ProductChar((chi, trivial_fin)), chi, seq, 0) for chi in abelian_chars)
    return _certify(G, spec, bound, "qc", items, "full", group_zero(G).coords)
