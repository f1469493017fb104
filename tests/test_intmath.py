"""Integer utilities against slow independent oracles."""

from hypothesis import given, strategies as st

from qcdense._intmath import factorize, is_prime, primes_below


def oracle_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, n))


def test_primes_below_small():
    assert list(primes_below(2)) == []
    assert list(primes_below(3)) == [2]
    assert list(primes_below(20)) == [2, 3, 5, 7, 11, 13, 17, 19]


def test_primes_below_matches_oracle():
    assert list(primes_below(500)) == [n for n in range(500) if oracle_is_prime(n)]


def test_prime_counts():
    assert len(primes_below(100)) == 25
    assert len(primes_below(200)) == 46


@given(st.integers(min_value=0, max_value=2000))
def test_is_prime_matches_oracle(n):
    assert is_prime(n) == oracle_is_prime(n)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_round_trip(n):
    f = factorize(n)
    prod = 1
    for p, e in f.items():
        assert is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n


def test_factorize_large():
    # trial division has to run up to the square root of the large factor
    n = 1_048_583 * 7  # prime just past 2**20 times 7
    assert factorize(n) == {7: 1, 1_048_583: 1}
