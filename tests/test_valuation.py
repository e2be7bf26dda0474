import random

import pytest

from newton_gauge.polynomial import AnalysisInput, InvalidInputError, parse_polynomial
from newton_gauge.valuation import MAX_PRIME, p_adic_valuation, validate_prime


def test_valuation_of_zero_raises():
    with pytest.raises(ValueError, match="valuation of 0"):
        p_adic_valuation(0, 2)
    with pytest.raises(ValueError, match="valuation of 0"):
        p_adic_valuation(0, 97)


def test_small_valuations():
    assert p_adic_valuation(1, 2) == 0
    assert p_adic_valuation(8, 2) == 3
    assert p_adic_valuation(-8, 2) == 3
    assert p_adic_valuation(12, 2) == 2
    assert p_adic_valuation(12, 3) == 1
    assert p_adic_valuation(512, 2) == 9
    assert p_adic_valuation(9, 3) == 2


def test_valuation_product_rule():
    rng = random.Random(7)
    for _ in range(2000):
        p = rng.choice([2, 3, 5, 7])
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        assert p_adic_valuation(a * b, p) == p_adic_valuation(a, p) + p_adic_valuation(b, p)


def test_validate_prime():
    assert validate_prime(2)
    assert validate_prime(3)
    assert validate_prime(97)
    assert not validate_prime(4)
    assert not validate_prime(91)  # 7 * 13
    with pytest.raises(ValueError):
        validate_prime(1)
    with pytest.raises(ValueError):
        validate_prime(-5)


def test_validate_prime_matches_a_sieve():
    limit = 20000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    assert [validate_prime(n) for n in range(2, limit)] == sieve[2:]


def test_validate_prime_large_and_pseudoprime_inputs():
    for p in (10**16 + 61, 2**61 - 1, 2**64 - 59, 4294967291):
        assert validate_prime(p), p
    # Carmichael numbers and strong pseudoprimes to the first 1..9 prime
    # bases, then a product of two primes near 2^32.
    for n in (
        561,
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        (2**31 - 1) * 4294967291,
    ):
        assert not validate_prime(n), n


def test_validate_prime_rejects_64_bit_overflow():
    assert MAX_PRIME == 2**64
    for p in (2**64, 2**64 + 1, 2**89 - 1):
        with pytest.raises(ValueError, match="need p < 2\\^64"):
            validate_prime(p)
    with pytest.raises(InvalidInputError, match="need p < 2\\^64"):
        AnalysisInput(parse_polynomial("x^2+x+1"), 2**64 + 1)
