import random
from fractions import Fraction

import pytest

from newton_gauge.polynomial import AnalysisInput, InvalidInputError, parse_polynomial
from newton_gauge.valuation import (
    MAX_PRIME,
    MILLER_RABIN_LIMIT,
    format_slope,
    is_prime,
    p_adic_valuation,
    validate_prime,
)


def test_valuation_of_zero_raises():
    with pytest.raises(ValueError, match="valuation of 0"):
        p_adic_valuation(0, 2)
    with pytest.raises(ValueError, match="valuation of 0"):
        p_adic_valuation(0, 97)


def test_format_slope_prints_what_fraction_prints():
    assert (format_slope(3, 2), format_slope(-2, 6), format_slope(8, 2)) == ("3/2", "-1/3", "4")
    assert format_slope(0, 7) == format_slope(0, 1) == "0"
    rng = random.Random(11)
    cases = [(r, w) for r in range(-30, 31) for w in range(1, 31)]
    cases += [(rng.randint(-(10**40), 10**40), rng.randint(1, 10**40)) for _ in range(500)]
    for rise, width in cases:
        assert format_slope(rise, width) == str(Fraction(rise, width)), (rise, width)


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


def test_is_prime_is_exact_up_to_its_limit():
    assert [n for n in range(-3, 12) if is_prime(n)] == [2, 3, 5, 7, 11]
    # The least strong pseudoprime to the twelve bases 2..37
    # (399165290221 * 798330580441): the base 41 catches it.
    assert not is_prime(318665857834031151167461)
    # The limit is the least strong pseudoprime to the thirteen bases 2..41.
    assert MILLER_RABIN_LIMIT == 1287836182261 * 2575672364521
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59) and is_prime(2**79 - 67)
    assert not is_prime((2**61 - 1) * 1000003)
    # Past the limit the answer would not be exact; that is a broken
    # caller bound, not bad input.
    with pytest.raises(RuntimeError, match="Miller-Rabin") as info:
        is_prime(MILLER_RABIN_LIMIT)
    assert not isinstance(info.value, ValueError)


def test_validate_prime_uses_the_shared_prime_test(monkeypatch):
    import newton_gauge.valuation as valuation

    calls = []
    monkeypatch.setattr(valuation, "is_prime", lambda p: calls.append(p) or True)
    assert validate_prime(91)
    assert calls == [91]
