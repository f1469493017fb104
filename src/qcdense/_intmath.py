"""Small integer-theoretic helpers: sieves, primality, factorization."""

from __future__ import annotations

from math import isqrt


def primes_below(bound: int) -> tuple[int, ...]:
    """All primes p < bound, ascending, by sieve of Eratosthenes."""
    if bound <= 2:
        return ()
    flags = bytearray([1]) * bound
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(bound - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, bound, p)))
    return tuple(i for i in range(bound) if flags[i])


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d = 41
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out[d] = e
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out
