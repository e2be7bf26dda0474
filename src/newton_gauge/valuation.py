"""Exact arithmetic substrate: p-adic valuations of integers and primality.

Valuations are plain non-negative ints and are defined for nonzero
integers only: every caller skips zero coefficients.  Slopes built from
valuations are ``fractions.Fraction`` values, which are always kept in
lowest terms with a positive denominator, so rational comparisons are
exact.

Everything here is a pure function over immutable values and is safe to
call concurrently.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "Slope",
    "p_adic_valuation",
    "validate_prime",
]

# Exact rational slope; lowest terms and denominator > 0 are guaranteed
# by the Fraction constructor.
Slope = Fraction

# Miller-Rabin with the first twelve prime bases is deterministic below
# 3.3 * 10^24 (Sorenson and Webster, 2017); the cap keeps well inside it.
MAX_PRIME = 2**64
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def p_adic_valuation(n: int, p: int) -> int:
    """Largest exponent e with p**e dividing n, for n != 0.

    The caller is responsible for p being prime (see :func:`validate_prime`);
    for composite p the result is merely the divisibility exponent.
    """
    if n == 0:
        raise ValueError("the valuation of 0 is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def validate_prime(p: int) -> bool:
    """True iff p is prime, for 2 <= p < MAX_PRIME.

    Trial division by the small primes, then Miller-Rabin with each of
    them as a base, which is exact in this range.
    """
    if p < 2:
        raise ValueError(f"{p} is not a valid prime candidate (need p >= 2)")
    if p >= MAX_PRIME:
        raise ValueError(f"{p} is not a valid prime candidate (need p < 2^64)")
    for q in _SMALL_PRIMES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True
