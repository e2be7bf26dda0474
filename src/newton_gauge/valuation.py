"""Exact arithmetic substrate: p-adic valuations of integers and primality.

Valuations are plain non-negative ints and are defined for nonzero
integers only: every caller skips zero coefficients.  A slope is a pair
(rise, width) of ints with width > 0, compared as cross-multiplied
integers (see ``newton``); :func:`format_slope` prints one in lowest
terms, the only place a slope becomes text.

Everything here is a pure function over immutable values and is safe to
call concurrently.
"""

from __future__ import annotations

import math

__all__ = [
    "format_slope",
    "p_adic_valuation",
]

# Miller-Rabin with the first thirteen primes (2..41) as bases is exact
# below 3317044064679887385961981 ~ 3.3 * 10^24, the least strong
# pseudoprime to all of them (Sorenson and Webster, 2017).
MILLER_RABIN_LIMIT = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The cap on the primes an analysis accepts (``polynomial._require_prime``)
# keeps well inside that range.
MAX_PRIME = 2**64


def p_adic_valuation(n: int, p: int) -> int:
    """Largest exponent e with p**e dividing n, for n != 0 and p >= 2.

    The caller is responsible for p being prime (inputs are checked by
    ``polynomial._require_prime``);
    for composite p the result is merely the divisibility exponent.
    p < 2 raises ValueError, since no largest exponent exists for p = 1.
    """
    if n == 0:
        raise ValueError("the valuation of 0 is undefined")
    if p < 2:
        raise ValueError(f"a valuation needs p >= 2, got {p}")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def format_slope(rise: int, width: int) -> str:
    """The slope rise/width, width > 0, in lowest terms: "3/2", "-1/3", "4"."""
    g = math.gcd(rise, width)
    if g == width:
        return str(rise // g)
    return f"{rise // g}/{width // g}"


def is_prime(n: int) -> bool:
    """True iff n is prime, for n < MILLER_RABIN_LIMIT.

    Trial division by the bases, then deterministic Miller-Rabin.  Past
    the limit the answer would no longer be exact, so a larger n raises
    ``polynomial.InternalError``: callers keep their inputs below it, and
    reaching it means a broken bound, not bad input.
    """
    if n >= MILLER_RABIN_LIMIT:
        from .polynomial import InternalError  # polynomial imports this module

        raise InternalError(
            f"{n} is past the exact Miller-Rabin range (< {MILLER_RABIN_LIMIT})"
        )
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True

