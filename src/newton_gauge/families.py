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
"""

from __future__ import annotations

from itertools import product
from collections.abc import Iterator

from .polynomial import InvalidInputError, Polynomial

__all__ = [
    "example1_polynomial",
    "example1_instances",
    "example1_expected",
    "example2_polynomial",
    "example2_expected",
    "FAMILIES",
]


def example1_polynomial(n: int, p: int, a0: int, a1: int, a2: int, an: int) -> Polynomial:
    """One member of the first family; every a must lie in 1..p-1."""
    if n < 5:
        raise InvalidInputError("example1 needs n >= 5", "n")
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
    if d < 2:
        raise InvalidInputError("example2 needs d >= 2", "d")
    n = d * (d + 1)
    coeffs = [0] * (n + 1)
    coeffs[0] = p ** (d + 1)
    coeffs[d + 1] = p ** (d - 1)
    coeffs[n] = 1
    return Polynomial(coeffs)


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


FAMILIES = ("example1", "example2")
