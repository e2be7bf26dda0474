"""Built-in demonstration families with closed-form expected parameters.

Two one-parameter families of analysis inputs whose criteria parameters
are known exactly, used by the sweep harness and the CLI.  The expected
slopes m_i are (rise, width) pairs in lowest terms, as
``SlopeTable.slope_at`` returns them (gcd(n*(n-3)-1, n) = 1):

* example1(n, p): degree n >= 5, coefficients
      a_0 + p^(n-4)*a_1*x + p^(n*(n-3)-1)*(a_2*x^2 + a_n*x^n)
  with a_i in {1, ..., p-1}.  Dominant index s = 1, slopes
  m_1 = n-3, m_2 = 0, m_0 = n-3-1/n, and u = d = n-1, so the first
  criterion applies with modulus 1.

* example2(d, p): Y_d = p^(d+1) + p^(d-1)*x^(d+1) + x^(d*(d+1)),
  degree d*(d+1), d >= 2.  Dominant index s = d+1, slopes
  m_s = -1/(d+1) and m_0 = -1/d, u = d^2-1, gcd d-1, modulus d+1, so
  the second criterion applies (tag TB exactly when d = 2).

This module alone decides what a family value is:

    family    parameter  least  degree   instances per (value, p) cell
    example1  n          5      n        (p-1)^4
    example2  d          2      d(d+1)   1

:func:`_check_values` refuses a bad value before any instance is built.
"""

from __future__ import annotations

from itertools import product
from collections.abc import Iterable, Iterator, Sequence

from .polynomial import MAX_PARSED_EXPONENT, InvalidInputError, Polynomial

__all__ = [
    "example1_polynomial",
    "example1_instances",
    "example1_expected",
    "example2_polynomial",
    "example2_instances",
    "example2_expected",
    "FAMILIES",
    "MAX_FAMILY_COEFF_BITS",
]

# Bits an example1 top coefficient (p - 1) p^(n(n-3)-1) may have: n <= 142
# at p = 2, which still reaches past Python's 4,300-digit int-to-str limit.
MAX_FAMILY_COEFF_BITS = 20_000
# Each family's parameter and its least value.
_PARAMETERS = {"example1": ("n", 5), "example2": ("d", 2)}
FAMILIES = tuple(_PARAMETERS)


def _require_least(family: str, value: int) -> None:
    name, least = _PARAMETERS[family]
    if value < least:
        raise InvalidInputError(f"{family} needs {name} >= {least}", name)


def _cell_size(family: str, p: int) -> int:
    """How many instances a (value, p) cell of `family` holds."""
    return (p - 1) ** 4 if family == "example1" else 1


def _check_values(family: str, values: Iterable[int], primes: Sequence[int]) -> None:
    """Refuse the first of `values` that `family` cannot take, naming the
    arguments in InvalidInputError: one below the family's least value, one
    whose degree passes the parser's limit MAX_PARSED_EXPONENT (example2
    needs d <= 999), or, for example1, one whose top coefficient
    (p-1) p^(n(n-3)-1) has more than MAX_FAMILY_COEFF_BITS bits at one of
    `primes`, checked in that order.  Nothing is built."""
    name = _PARAMETERS[family][0]
    for value in values:
        _require_least(family, value)
        n = value if family == "example1" else value * (value + 1)
        if n > MAX_PARSED_EXPONENT:
            raise InvalidInputError(
                f"{name} = {value} gives degree {n}, more than the"
                f" parser's degree limit {MAX_PARSED_EXPONENT}",
                name,
            )
        if family != "example1":
            continue
        # p^e has more than e (bits(p) - 1) bits, so p^e is built only when small.
        e = value * (value - 3) - 1
        for p in primes:
            if e * (p.bit_length() - 1) >= MAX_FAMILY_COEFF_BITS or (
                ((p - 1) * p**e).bit_length() > MAX_FAMILY_COEFF_BITS
            ):
                raise InvalidInputError(
                    f"n = {value} at p = {p} gives a top coefficient of more than"
                    f" {MAX_FAMILY_COEFF_BITS} bits",
                    "n",
                    "primes",
                )


def example1_polynomial(n: int, p: int, a0: int, a1: int, a2: int, an: int) -> Polynomial:
    """One member of the first family; every a must lie in 1..p-1."""
    _require_least("example1", n)
    for a in (a0, a1, a2, an):
        if not 1 <= a <= p - 1:
            raise InvalidInputError(f"coefficient choice {a} outside 1..{p - 1}")
    high = p ** (n * (n - 3) - 1)
    coeffs = [0] * (n + 1)
    coeffs[0] = a0
    coeffs[1] = p ** (n - 4) * a1
    coeffs[2] = high * a2
    coeffs[n] = high * an
    return Polynomial(coeffs)


def example1_instances(n: int, p: int) -> Iterator[Polynomial]:
    """All (p-1)^4 members for the given n and p, in lexicographic a-order."""
    for a0, a1, a2, an in product(range(1, p), repeat=4):
        yield example1_polynomial(n, p, a0, a1, a2, an)


def example1_expected(n: int) -> dict:
    """Closed-form criteria parameters shared by every member (any p)."""
    return {
        "s": 1,
        "c_s": (n - 1) * (n - 3),
        "c_n": n * (n - 3) - 1,
        "d": n - 1,
        "u": n - 1,
        "modulus": 1,
        "theorem": "T1",
        "m_s": (n - 3, 1),
        "m_0": (n * (n - 3) - 1, n),
        "m_2": (0, 1),
    }


def example2_polynomial(d: int, p: int) -> Polynomial:
    """Y_d = p^(d+1) + p^(d-1)*x^(d+1) + x^(d*(d+1)), d >= 2."""
    _require_least("example2", d)
    n = d * (d + 1)
    coeffs = [0] * (n + 1)
    coeffs[0] = p ** (d + 1)
    coeffs[d + 1] = p ** (d - 1)
    coeffs[n] = 1
    return Polynomial(coeffs)


def example2_instances(d: int, p: int) -> tuple[Polynomial]:
    """The one member for the given d and p."""
    return (example2_polynomial(d, p),)


def example2_expected(d: int) -> dict:
    """Closed-form criteria parameters of Y_d (any p)."""
    return {
        "s": d + 1,
        "c_s": -(d - 1),
        "c_n": -(d + 1),
        "d": d - 1,
        "u": d * d - 1,
        "modulus": d + 1,
        "theorem": "TB" if d == 2 else "T2",
        "m_s": (-1, d + 1),
        "m_0": (-1, d),
    }

