"""Characters of the supported groups, their evaluation and enumeration.

A character is a continuous homomorphism into R/Z, represented exactly:

* TorusChar(m): x -> m*x
* ProfiniteChar(a/b): h -> phi(a * (h mod b) / b)
* SolenoidChar(a/b): pi(r, h) -> phi(a*r/b - a*(h mod b)/b)
* CyclicChar(k, n): c -> phi(k*c/n)
* ProductChar: coordinate sum
* FiniteAbelianChar: pairing against invariant-factor coordinates

The solenoid formula is normalized so the generator u = (1, v) pairs to
zero, which makes it well defined on the quotient; the sign sits on the
profinite term.  Enumeration at a bound lists every nonzero character whose
complexity is at most the bound, complexity-major, so certificates at a
smaller bound are prefixes of certificates at a larger one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from ._intmath import primes_below
from .circle import ZERO, UnitRational, circle_add, in_tplus
from .errors import KindMismatch, UnsupportedBound
from .groups import IntegerPoint, ProductElem, SolenoidPoint, residue_mod

PRODUCT_ENUMERATION_LIMIT = 2_000_000


@dataclass(frozen=True)
class TorusChar:
    m: int
    kind: str = field(default="torus", init=False)


@dataclass(frozen=True, init=False)
class ProfiniteChar:
    q: UnitRational
    kind: str = field(default="profinite", init=False)

    def __init__(self, q: UnitRational):
        # built once per character in the profinite sweeps; kind stays the
        # class-level default
        self.__dict__["q"] = q


@dataclass(frozen=True)
class SolenoidChar:
    q: Fraction
    kind: str = field(default="solenoid", init=False)


@dataclass(frozen=True)
class CyclicChar:
    k: int
    n: int
    kind: str = field(default="cyclic", init=False)


@dataclass(frozen=True)
class ProductChar:
    components: tuple[object, ...]
    kind: str = field(default="product", init=False)


@dataclass(frozen=True)
class FiniteAbelianChar:
    """Character of a finite group factoring through its abelian quotient.

    coeffs[i] pairs against coordinate i of the quotient written in
    invariant factors; proj maps each finite-group element index to its
    coordinate tuple.  Empty factors give the trivial character of any
    finite group.
    """

    coeffs: tuple[int, ...]
    factors: tuple[int, ...]
    proj: tuple[tuple[int, ...], ...]
    kind: str = field(default="finite_abelian", init=False)


Character = object


def is_trivial(chi: Character) -> bool:
    k = chi.kind
    if k == "torus":
        return chi.m == 0
    if k == "profinite":
        return chi.q.is_zero()
    if k == "solenoid":
        return chi.q == 0
    if k == "cyclic":
        return chi.k % chi.n == 0
    if k == "product":
        return all(is_trivial(c) for c in chi.components)
    if k == "finite_abelian":
        return all(c % n == 0 for c, n in zip(chi.coeffs, chi.factors))
    raise KindMismatch(f"unknown character kind {k!r}")


def complexity(chi: Character) -> int:
    """The enumeration measure: how far out the bounded sweep must go."""
    k = chi.kind
    if k == "torus":
        return abs(chi.m)
    if k == "profinite":
        return 0 if chi.q.is_zero() else chi.q.den
    if k == "solenoid":
        if chi.q == 0:
            return 0
        return max(abs(chi.q.numerator), chi.q.denominator)
    if k == "cyclic":
        return 0 if chi.k % chi.n == 0 else chi.n // gcd(chi.k, chi.n)
    if k == "product":
        return max((complexity(c) for c in chi.components), default=0)
    if k == "finite_abelian":
        orders = [n // gcd(c, n) for c, n in zip(chi.coeffs, chi.factors)]
        return lcm(*orders) if orders else 0
    raise KindMismatch(f"unknown character kind {k!r}")


def char_sort_key(chi: Character) -> tuple:
    """Total deterministic order: complexity first, positives before negatives."""
    k = chi.kind
    if k == "torus":
        return (abs(chi.m), 0 if chi.m > 0 else 1)
    if k == "profinite":
        return (complexity(chi), chi.q.num)
    if k == "solenoid":
        a, b = chi.q.numerator, chi.q.denominator
        return (complexity(chi), b, abs(a), 0 if a > 0 else 1)
    if k == "cyclic":
        return (complexity(chi), chi.k)
    if k == "product":
        return (complexity(chi), tuple(char_sort_key(c) for c in chi.components))
    if k == "finite_abelian":
        return (complexity(chi), chi.coeffs)
    raise KindMismatch(f"unknown character kind {k!r}")


# ---------------------------------------------------------------------------
# evaluation


def eval_char(chi: Character, x: object) -> UnitRational:
    """The exact pairing value chi(x) in R/Z."""
    k = chi.kind
    if k == "torus":
        if not isinstance(x, UnitRational):
            raise KindMismatch("torus character needs a circle element")
        return UnitRational(chi.m * x.num, x.den)
    if k == "profinite":
        if not isinstance(x, IntegerPoint):
            raise KindMismatch("profinite character needs a profinite element")
        a, b = chi.q.num, chi.q.den
        if a == 0:
            return ZERO
        return UnitRational(a * residue_mod(x, b), b)
    if k == "solenoid":
        if not isinstance(x, SolenoidPoint):
            raise KindMismatch("solenoid character needs a solenoid point")
        if chi.q == 0:
            return ZERO
        # a*r/b over the common denominator b*rd, in integers; the fiber
        # term a*(h mod b)/b is zero, since h is folded into r
        a, b = chi.q.numerator, chi.q.denominator
        rn, rd = x.r.numerator, x.r.denominator
        return UnitRational(a * rn, b * rd)
    if k == "cyclic":
        if not isinstance(x, int):
            raise KindMismatch("cyclic character needs an integer residue")
        return UnitRational(chi.k * x, chi.n)
    if k == "product":
        if not isinstance(x, ProductElem) or len(x.coords) != len(chi.components):
            raise KindMismatch("product character and element shapes differ")
        acc = ZERO
        for comp, coord in zip(chi.components, x.coords):
            acc = circle_add(acc, eval_char(comp, coord))
        return acc
    if k == "finite_abelian":
        if not isinstance(x, int):
            raise KindMismatch("finite character needs an element index")
        if not chi.factors:
            return ZERO
        acc = ZERO
        for c, n, coord in zip(chi.coeffs, chi.factors, chi.proj[x]):
            acc = circle_add(acc, UnitRational(c * coord, n))
        return acc
    raise KindMismatch(f"unknown character kind {k!r}")


def annihilates(chi: Character, elements) -> bool:
    """Whether chi maps every listed element to zero."""
    return all(eval_char(chi, x).is_zero() for x in elements)


def escapes(chi: Character, x: object) -> bool:
    """Whether chi(x) leaves the closed quarter arc around zero."""
    return not in_tplus(eval_char(chi, x))


# ---------------------------------------------------------------------------
# bounded enumeration


def trivial_char(G) -> Character:
    k = G.kind
    if k == "torus":
        return TorusChar(0)
    if k == "profinite":
        return ProfiniteChar(ZERO)
    if k == "solenoid":
        return SolenoidChar(Fraction(0))
    if k == "cyclic":
        return CyclicChar(0, G.n)
    if k == "product":
        return ProductChar(tuple(trivial_char(f) for f in G.factors))
    if k == "product_with_finite":
        return ProductChar((trivial_char(G.abelian), FiniteAbelianChar((), (), ())))
    raise KindMismatch(f"unknown group kind {k!r}")


def _check_prefix(primes: tuple[int, ...], bound: int) -> None:
    # denominators up to the bound must factor through the working primes
    have = set(primes)
    missing = [p for p in primes_below(bound + 1) if p not in have]
    if missing:
        raise UnsupportedBound(
            f"bound {bound} reaches denominators with prime factors {missing} "
            f"outside the working prime list"
        )


def enumerate_chars(G, bound: int) -> list[Character]:
    """All nonzero characters of G with complexity at most the bound.

    The result is deterministically ordered by char_sort_key, so raising the
    bound extends the list as a prefix.
    """
    if bound < 0:
        raise UnsupportedBound("bound must be nonnegative")
    k = G.kind
    if k == "torus":
        out = []
        for m in range(1, bound + 1):
            out.append(TorusChar(m))
            out.append(TorusChar(-m))
        return out
    if k == "profinite":
        _check_prefix(G.primes, bound)
        out = []
        for b in range(2, bound + 1):
            for a in range(1, b):
                if gcd(a, b) == 1:
                    out.append(ProfiniteChar(UnitRational(a, b)))
        return out
    if k == "solenoid":
        _check_prefix(G.primes, bound)
        # generated in char_sort_key order: complexity c = max(|a|, b), then
        # b, then |a|; below the diagonal b = c the numerator is c itself
        out = []
        for c in range(1, bound + 1):
            for b in range(1, c + 1):
                for a in range(1, c + 1) if b == c else (c,):
                    if gcd(a, b) == 1:
                        out.append(SolenoidChar(Fraction(a, b)))
                        out.append(SolenoidChar(Fraction(-a, b)))
        return out
    if k == "cyclic":
        out = [
            CyclicChar(k_, G.n)
            for k_ in range(1, G.n)
            if G.n // gcd(k_, G.n) <= bound
        ]
        return sorted(out, key=char_sort_key)
    if k == "product":
        per_factor = []
        total = 1
        for f in G.factors:
            opts = [trivial_char(f)] + enumerate_chars(f, bound)
            total *= len(opts)
            if total > PRODUCT_ENUMERATION_LIMIT:
                raise UnsupportedBound(
                    f"product enumeration at bound {bound} exceeds "
                    f"{PRODUCT_ENUMERATION_LIMIT} characters"
                )
            per_factor.append(opts)
        out = [
            ProductChar(tup)
            for tup in product(*per_factor)
            if any(not is_trivial(c) for c in tup)
        ]
        return sorted(out, key=char_sort_key)
    if k == "product_with_finite":
        raise KindMismatch(
            "products with a finite factor enumerate through the finite-factor "
            "certifier, which supplies the finite dual data"
        )
    raise KindMismatch(f"unknown group kind {k!r}")
