"""Concrete compact abelian groups and their exact element arithmetic.

Supported groups: the circle, a profinite product of prime-order towers
indexed by a finite working list of distinct primes, the solenoid built as
(R x H)/<u> with u = (1, v), finite cyclic groups, finite products, and a
product of an abelian group with a finite (possibly non-abelian) group.

The profinite group H is conceptually the full product over its prime list;
an IntegerPoint(m) is the dense-subgroup element m*v where v has every
coordinate 1.  Every element is exact: circle points and solenoid real
parts are rationals, profinite points and cyclic residues are integers, and
product elements are tuples of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from ._intmath import is_prime
from .circle import UnitRational
from .errors import IndexOutOfRange, KindMismatch, ValidationError


# ---------------------------------------------------------------------------
# group descriptors


def _check_primes(primes: tuple[int, ...]) -> None:
    if not primes:
        raise ValidationError("prime list must be nonempty")
    if list(primes) != sorted(set(primes)):
        raise ValidationError("prime list must be strictly increasing")
    for p in primes:
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")


@dataclass(frozen=True)
class Torus:
    kind: str = field(default="torus", init=False)


@dataclass(frozen=True)
class Profinite:
    primes: tuple[int, ...]
    kind: str = field(default="profinite", init=False)

    def __post_init__(self):
        _check_primes(self.primes)


@dataclass(frozen=True)
class Solenoid:
    primes: tuple[int, ...]
    kind: str = field(default="solenoid", init=False)

    def __post_init__(self):
        _check_primes(self.primes)


@dataclass(frozen=True)
class Cyclic:
    n: int
    kind: str = field(default="cyclic", init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("cyclic order must be positive")


@dataclass(frozen=True)
class Product:
    factors: tuple[object, ...]
    kind: str = field(default="product", init=False)

    def __post_init__(self):
        if not self.factors:
            raise ValidationError("product needs at least one factor")


@dataclass(frozen=True)
class ProductWithFinite:
    """A x F for abelian A and a finite group F (given by its table)."""

    abelian: object
    finite: object
    kind: str = field(default="product_with_finite", init=False)


GroupDesc = object  # any of the descriptor classes above


# ---------------------------------------------------------------------------
# profinite elements


@dataclass(frozen=True)
class IntegerPoint:
    """The element m*v of H, v being the all-ones coordinate vector."""

    m: int


def residue_mod(h: IntegerPoint, b: int) -> int:
    """The residue of h modulo b, i.e. the image of h in Z/b."""
    if b < 1:
        raise ValidationError("modulus must be positive")
    return h.m % b


# ---------------------------------------------------------------------------
# the tower constants k_n and the open subgroups W_n = k_n * H


@lru_cache(maxsize=None)
def k_sequence(primes: tuple[int, ...], n: int) -> int:
    """k_0 = 1 and k_n = (p_0 * ... * p_{n-1}) ** n."""
    if n < 0:
        raise IndexOutOfRange("k index must be nonnegative")
    if n == 0:
        return 1
    if n > len(primes):
        raise IndexOutOfRange(f"k_{n} needs {n} primes, have {len(primes)}")
    prod = 1
    for p in primes[:n]:
        prod *= p
    return prod**n


def in_Wn(h: IntegerPoint, primes: tuple[int, ...], n: int) -> bool:
    """Whether h lies in W_n = k_n * H, i.e. p-adic valuation >= n below n."""
    if n < 0:
        raise IndexOutOfRange("W index must be nonnegative")
    if n > len(primes):
        raise IndexOutOfRange(f"W_{n} needs {n} primes, have {len(primes)}")
    return all(h.m % p**n == 0 for p in primes[:n])


# ---------------------------------------------------------------------------
# solenoid points


class SolenoidPoint:
    """A point pi(r, h) of (R x H)/<(1, v)>, r an exact rational.

    Construction with h an IntegerPoint(m) shifts by m*(1, v), so the stored
    form is pi(r - m, 0): only r is kept, h always reads IntegerPoint(0), and
    points compare by their exact real part.  The real part is reduced mod 1
    for display only, the stored value feeds the character pairing.
    """

    __slots__ = ("r",)
    # one shared fiber for every point; the JSON encoding still writes it
    h = IntegerPoint(0)

    def __init__(self, r: Fraction | int, h: IntegerPoint | None = None):
        r = Fraction(r)
        if h is not None:
            if not isinstance(h, IntegerPoint):
                raise KindMismatch(f"solenoid fiber must be an IntegerPoint, got {h!r}")
            r -= h.m
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError("SolenoidPoint is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolenoidPoint):
            return NotImplemented
        return self.r == other.r

    def __hash__(self) -> int:
        return hash(("solenoid", self.r))

    def __repr__(self) -> str:
        return f"SolenoidPoint({self.r!r})"

    def display_r(self) -> Fraction:
        return self.r - (self.r // 1)


# ---------------------------------------------------------------------------
# product elements


@dataclass(frozen=True)
class ProductElem:
    coords: tuple[object, ...]


# ---------------------------------------------------------------------------
# generic group operations


def group_zero(G: GroupDesc) -> object:
    k = G.kind
    if k == "torus":
        return UnitRational(0, 1)
    if k == "profinite":
        return IntegerPoint(0)
    if k == "solenoid":
        return SolenoidPoint(Fraction(0))
    if k == "cyclic":
        return 0
    if k == "product":
        return ProductElem(tuple(group_zero(f) for f in G.factors))
    if k == "product_with_finite":
        return ProductElem((group_zero(G.abelian), G.finite.identity))
    raise KindMismatch(f"unknown group kind {k!r}")


def arc_flag(G: GroupDesc, x: object) -> bool:
    """Whether x lies on the arc component of the identity.

    The circle is connected, so every point qualifies; profinite and cyclic
    groups are totally disconnected, only zero qualifies; every solenoid
    point has the canonical form pi(t, 0), on the arc; products go
    componentwise.
    """
    k = G.kind
    if k in ("torus", "solenoid"):
        return True
    if k == "profinite":
        return x.m == 0
    if k == "cyclic":
        return x % G.n == 0
    if k == "product":
        return all(arc_flag(f, a) for f, a in zip(G.factors, x.coords))
    if k == "product_with_finite":
        return arc_flag(G.abelian, x.coords[0]) and x.coords[1] == G.finite.identity
    raise KindMismatch(f"unknown group kind {k!r}")
