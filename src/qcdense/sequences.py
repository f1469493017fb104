"""Super-sequence construction: convergent member families with one limit.

A SuperSeq materializes a finite truncation of an infinite convergent
family: the deterministically ordered members, the limit they converge to,
per-member derivation metadata, and per-member arc-component flags.
Members are pairwise distinct and never include the limit.

Generators: the halving sequence on the circle, the tower multiples in a
profinite group, the two-block solenoid family (profinite images on the
arc plus halving arc points), the fan combinator over a product, and
pushforward along a quotient map with limit absorption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .circle import UnitRational
from .errors import (
    IndexOutOfRange,
    KindMismatch,
    SizeLimit,
    ValidationError,
)
from .groups import (
    GroupDesc,
    IntegerPoint,
    Product,
    ProductElem,
    Profinite,
    Solenoid,
    SolenoidPoint,
    Torus,
    arc_flag,
    group_zero,
    k_sequence,
)

MEMBER_LIMIT = 2_000_000


@dataclass(frozen=True)
class SuperSeq:
    """A finite truncation of a convergent super-sequence."""

    group: GroupDesc
    members: tuple[object, ...]
    limit: object
    index_meta: tuple[object, ...]
    arc_flags: tuple[bool, ...]
    generator: str
    params: tuple[tuple[str, object], ...]
    parts: tuple["SuperSeq", ...] | None = None

    def __post_init__(self):
        if not (len(self.members) == len(self.index_meta) == len(self.arc_flags)):
            raise ValidationError("member annotations must align with members")
        if len(self.member_set) != len(self.members):
            raise ValidationError("members must be pairwise distinct")
        if self.limit in self.member_set:
            raise ValidationError("members must exclude the limit")

    @cached_property
    def member_set(self) -> frozenset:
        """The members as a set, for membership tests."""
        return frozenset(self.members)

    @cached_property
    def integer_members(self) -> dict[int, IntegerPoint | SolenoidPoint]:
        """The members with an integer value, keyed by that integer.

        Profinite points IntegerPoint(m) are keyed by m, and solenoid points
        pi(j, 0) on the arc with integer j (the images pi(-w, 0) of tower
        members) by j.  Witness finders that compute a member's value look
        it up here and get the sequence's own point back, without building
        one to hash.
        """
        out: dict[int, IntegerPoint | SolenoidPoint] = {}
        for x in self.members:
            if isinstance(x, IntegerPoint):
                out[x.m] = x
            elif isinstance(x, SolenoidPoint) and x.r.denominator == 1:
                out[x.r.numerator] = x
        return out

    @cached_property
    def reciprocal_members(self) -> dict[int, UnitRational | SolenoidPoint]:
        """The members 1/d, keyed by d.

        Circle points phi(1/d) and solenoid arc points pi(1/d, 0), such as
        the halving members; the torus and integer-character finders look
        their witness up here, as integer_members serves the tower members.
        """
        out: dict[int, UnitRational | SolenoidPoint] = {}
        for x in self.members:
            if isinstance(x, UnitRational) and x.num == 1:
                out[x.den] = x
            elif isinstance(x, SolenoidPoint) and x.r.numerator == 1:
                out[x.r.denominator] = x
        return out


def torus_sequence(N: int) -> SuperSeq:
    """The circle members phi(1/(2n)) for 1 <= n <= N, converging to zero."""
    if N < 1:
        raise ValidationError("N must be at least 1")
    members = tuple(UnitRational(1, 2 * n) for n in range(1, N + 1))
    return SuperSeq(
        group=Torus(),
        members=members,
        limit=UnitRational(0, 1),
        index_meta=tuple(range(1, N + 1)),
        arc_flags=(True,) * N,
        generator="torus",
        params=(("N", N),),
    )


def _profinite_values(
    primes: tuple[int, ...], n_max: int, m_cap: int | None
) -> dict[int, list[tuple[int, int]]]:
    """All truncation values m*k_n with every (n, m) derivation kept."""
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    if n_max + 1 > len(primes):
        raise IndexOutOfRange(
            f"truncation depth {n_max} needs {n_max + 1} primes, have {len(primes)}"
        )
    if m_cap is not None and m_cap < 1:
        raise ValidationError("m_cap must be positive")
    total = 0
    for n in range(n_max + 1):
        cap = k_sequence(primes, n + 1)
        if m_cap is not None:
            cap = min(cap, m_cap)
        total += cap
        if total > MEMBER_LIMIT:
            raise SizeLimit(
                f"truncation would materialize more than {MEMBER_LIMIT} members; "
                f"pass a smaller m_cap"
            )
    values: dict[int, list[tuple[int, int]]] = {}
    for n in range(n_max + 1):
        k_n = k_sequence(primes, n)
        cap = k_sequence(primes, n + 1)
        if m_cap is not None:
            cap = min(cap, m_cap)
        for m in range(1, cap + 1):
            values.setdefault(m * k_n, []).append((n, m))
    return values


def profinite_sequence(
    primes: tuple[int, ...], n_max: int, m_cap: int | None = None
) -> SuperSeq:
    """Tower multiples m*k_n*v for 0 <= n <= n_max, 1 <= m <= min(k_{n+1}, m_cap).

    Members deduplicate by value in ascending order; every generating pair
    (n, m) inside the truncation is kept in the member's metadata.
    """
    values = _profinite_values(primes, n_max, m_cap)
    ordered = sorted(values)
    params: list[tuple[str, object]] = [("primes", tuple(primes)), ("n_max", n_max)]
    if m_cap is not None:
        params.append(("m_cap", m_cap))
    return SuperSeq(
        group=Profinite(tuple(primes)),
        members=tuple(IntegerPoint(w) for w in ordered),
        limit=IntegerPoint(0),
        index_meta=tuple(tuple(values[w]) for w in ordered),
        arc_flags=(False,) * len(ordered),
        generator="profinite",
        params=tuple(params),
    )


def solenoid_sequence(
    primes: tuple[int, ...], n_max: int, N: int, m_cap: int | None = None
) -> SuperSeq:
    """Two convergent blocks in the solenoid, all on the arc through zero.

    The first block carries the profinite members across the canonical
    identification pi(0, j*v) = pi(-j, 0); the second block is the halving
    family pi(1/(2n), 0) for 1 <= n <= N.
    """
    if N < 1:
        raise ValidationError("N must be at least 1")
    values = _profinite_values(primes, n_max, m_cap)
    ordered = sorted(values)
    members: list[SolenoidPoint] = []
    meta: list[object] = []
    for w in ordered:
        members.append(SolenoidPoint(Fraction(-w)))
        meta.append(("profinite_image", tuple(values[w])))
    for n in range(1, N + 1):
        members.append(SolenoidPoint(Fraction(1, 2 * n)))
        meta.append(("arc", n))
    params: list[tuple[str, object]] = [
        ("primes", tuple(primes)),
        ("n_max", n_max),
        ("N", N),
    ]
    if m_cap is not None:
        params.append(("m_cap", m_cap))
    return SuperSeq(
        group=Solenoid(tuple(primes)),
        members=tuple(members),
        limit=SolenoidPoint(Fraction(0)),
        index_meta=tuple(meta),
        arc_flags=(True,) * len(members),
        generator="solenoid",
        params=tuple(params),
    )


def from_members(
    G: GroupDesc, members, limit: object | None = None, name: str = "members"
) -> SuperSeq:
    """Wrap an explicit finite member list as a degenerate super-sequence."""
    members = tuple(members)
    if limit is None:
        limit = group_zero(G)
    return SuperSeq(
        group=G,
        members=members,
        limit=limit,
        index_meta=tuple(range(len(members))),
        arc_flags=tuple(arc_flag(G, x) for x in members),
        generator=name,
        params=(("members", members), ("limit", limit)),
    )


def fan(parts) -> SuperSeq:
    """Embed each part sequence on its own coordinate of the product.

    Members of part i map to the product element that is the member at
    coordinate i and zero elsewhere; the limit is the zero tuple.  Parts
    contribute no shared members because members never equal their limit.
    A part may not itself live in a product: the componentwise sweep orders
    component characters of every factor on one scale.
    """
    parts = tuple(parts)
    if not parts:
        raise ValidationError("fan needs at least one part")
    for part in parts:
        if part.group.kind in ("product", "product_with_finite"):
            raise ValidationError(f"fan parts must not be {part.group.kind} groups")
    factors = tuple(p.group for p in parts)
    G = Product(factors)
    zeros = [group_zero(f) for f in factors]
    members: list[ProductElem] = []
    meta: list[object] = []
    flags: list[bool] = []
    for i, part in enumerate(parts):
        for x, m, a in zip(part.members, part.index_meta, part.arc_flags):
            coords = list(zeros)
            coords[i] = x
            members.append(ProductElem(tuple(coords)))
            meta.append((i, m))
            # zero coordinates are on the arc, so the part flag decides
            flags.append(a)
    return SuperSeq(
        group=G,
        members=tuple(members),
        limit=ProductElem(tuple(zeros)),
        index_meta=tuple(meta),
        arc_flags=tuple(flags),
        generator="fan",
        params=(("parts", tuple((p.generator, p.params) for p in parts)),),
        parts=parts,
    )


# ---------------------------------------------------------------------------
# pushforward along quotient maps


@dataclass(frozen=True)
class SolenoidToTorus:
    """Quotient by the profinite fiber; pi(r, h) maps to phi(r)."""

    map_id: str = field(default="solenoid_to_torus", init=False)


@dataclass(frozen=True)
class ProductProjection:
    index: int
    map_id: str = field(default="product_projection", init=False)


@dataclass(frozen=True)
class DropFiniteFactor:
    """Project a product with a finite factor onto its abelian part."""

    map_id: str = field(default="drop_finite_factor", init=False)


def _apply_map(map_desc, G: GroupDesc, x: object) -> tuple[GroupDesc, object]:
    mid = map_desc.map_id
    if mid == "solenoid_to_torus":
        if G.kind != "solenoid":
            raise KindMismatch("solenoid_to_torus needs a solenoid source")
        return Torus(), UnitRational(x.r.numerator, x.r.denominator)
    if mid == "product_projection":
        if G.kind != "product":
            raise KindMismatch("product_projection needs a product source")
        if not 0 <= map_desc.index < len(G.factors):
            raise IndexOutOfRange(f"no factor {map_desc.index}")
        return G.factors[map_desc.index], x.coords[map_desc.index]
    if mid == "drop_finite_factor":
        if G.kind != "product_with_finite":
            raise KindMismatch("drop_finite_factor needs a finite-factor product")
        return G.abelian, x.coords[0]
    raise KindMismatch(f"unknown quotient map {mid!r}")


def pushforward(seq: SuperSeq, map_desc) -> SuperSeq:
    """Image sequence under a quotient map, with limit absorption.

    Member images equal to the image limit are dropped; coinciding images
    merge, keeping every source derivation in the metadata.
    """
    imageG, image_limit = _apply_map(map_desc, seq.group, seq.limit)
    seen: dict[object, list[object]] = {}
    order: list[object] = []
    for x, m in zip(seq.members, seq.index_meta):
        _, y = _apply_map(map_desc, seq.group, x)
        if y == image_limit:
            continue
        if y in seen:
            seen[y].append(m)
        else:
            seen[y] = [m]
            order.append(y)
    return SuperSeq(
        group=imageG,
        members=tuple(order),
        limit=image_limit,
        index_meta=tuple(tuple(seen[y]) for y in order),
        arc_flags=tuple(arc_flag(imageG, y) for y in order),
        generator="pushforward",
        params=(
            ("map", map_desc.map_id)
            if map_desc.map_id != "product_projection"
            else ("map", (map_desc.map_id, map_desc.index)),
            ("source", (seq.generator, seq.params)),
        ),
    )
