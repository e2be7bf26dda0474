"""Newton polygon geometry: valuation points, lower hull, slopes, Newton index.

For f = a_0 + a_1 x + ... + a_n x^n and a prime p, each nonzero
coefficient contributes a lattice point (i, v_p(a_i)).  The Newton
polygon is the lower convex hull of those points.  The slope table
records, for every index i < n with a_i != 0, the exact rational

    m_i(f) = (v_p(a_n) - v_p(a_i)) / (n - i),

and the Newton index e(f) is the largest such slope.  Since m_i is the
slope of the chord from point i to the last point (n, v_p(a_n)), the
Newton index is the slope of the last hull edge.  Indices with a_i = 0
contribute no slope (morally slope minus infinity), so skipping them is
exact.  The index is multiplicative: e(f*g) = max(e(f), e(g)).

Points are plain (index, valuation) pairs and a slope is a plain
(rise, width) pair of ints with width > 0.  Slopes are compared as
cross-multiplied integers, a/b >= c/d iff a*d >= c*b, so no rational
number is ever built.  A slope handed to a caller (``newton_index``,
``SlopeTable.slope_at``) is in lowest terms, so equal slopes are equal
pairs; ``valuation.format_slope`` prints one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .polynomial import AnalysisInput, InternalError, Polynomial, _bind, _Value
from .valuation import p_adic_valuation

__all__ = [
    "NewtonPolygon",
    "SlopeTable",
    "valuation_points",
    "lower_convex_hull",
    "newton_polygon",
    "slope_table",
    "newton_index",
]


# A lattice point (exponent, valuation of that coefficient), and a slope
# (rise, width) with width > 0.
Point = tuple[int, int]
Slope = tuple[int, int]


def valuation_points(f: Polynomial, p: int) -> list[Point]:
    """Points (i, v_p(a_i)) for the nonzero coefficients of f, ascending index."""
    return [(i, p_adic_valuation(c, p)) for i, c in enumerate(f.coeffs) if c]


class NewtonPolygon(_Value):
    """Lower convex hull of the valuation points of a polynomial.

    Construction re-checks the hull invariants: vertex x-coordinates
    strictly increasing, edge slopes strictly increasing, and every
    point on or above the hull.  A failed check is an InternalError,
    since the hull builder is what broke.
    """

    __slots__ = ("points", "vertices")

    def __init__(self, points: tuple[Point, ...], vertices: tuple[Point, ...]):
        _bind(self, "points", points)
        _bind(self, "vertices", vertices)
        if len(vertices) < 2:
            raise InternalError("a polygon needs at least two vertices")
        steps = [(i1 - i0, v1 - v0) for (i0, v0), (i1, v1) in zip(vertices, vertices[1:])]
        if min(steps)[0] <= 0:  # the least width
            raise InternalError("hull vertex indices must strictly increase")
        for (w1, r1), (w2, r2) in zip(steps, steps[1:]):
            if r1 * w2 >= r2 * w1:
                raise InternalError("hull edge slopes must strictly increase")
        # One walk: each point meets the first edge whose index range holds it.
        k, last = 0, len(steps) - 1
        for pt in points:
            i, v = pt
            if i < vertices[k][0]:
                k = 0
            while k < last and vertices[k + 1][0] < i:
                k += 1
            i0, v0 = vertices[k]
            width, rise = steps[k]
            if not 0 <= i - i0 <= width or (v - v0) * width < rise * (i - i0):
                raise InternalError(f"point {pt} lies below the hull")


def lower_convex_hull(points: Sequence[Point]) -> NewtonPolygon:
    """Lower convex hull of points sorted by index, as a NewtonPolygon.

    Monotone-chain construction; the predicate is an integer cross
    product, so no division occurs.  Collinear interior points are
    dropped (cross product 0 pops them), leaving the minimal vertex set.
    """
    if len(points) < 2:
        raise ValueError("need at least two points for a hull")
    hull: list[Point] = []
    for pt in points:
        i, v = pt
        while len(hull) >= 2:
            (i0, v0), (i1, v1) = hull[-2], hull[-1]
            if (i1 - i0) * (v - v0) > (v1 - v0) * (i - i0):
                break
            hull.pop()
        hull.append(pt)
    return NewtonPolygon(points=tuple(points), vertices=tuple(hull))


def newton_polygon(f: Polynomial, p: int) -> NewtonPolygon:
    """Newton polygon of f with respect to p (f needs two nonzero terms)."""
    return lower_convex_hull(valuation_points(f, p))


def _steepest(
    points: Iterable[Point], n: int, vn: int
) -> tuple[tuple[int, ...], Slope | None]:
    """Indices i attaining the largest slope (vn - v)/(n - i) over points
    (i, v) with i < n, in ascending order, and that slope in lowest terms;
    ((), None) when there are no points."""
    at: list[int] = []
    best_rise = best_width = 0
    for i, v in points:
        rise, width = vn - v, n - i
        gap = rise * best_width - best_rise * width if at else 1
        if gap > 0:
            best_rise, best_width, at = rise, width, [i]
        elif gap == 0:
            at.append(i)
    if not at:
        return (), None
    g = math.gcd(best_rise, best_width)
    return tuple(at), (best_rise // g, best_width // g)


class SlopeTable(_Value):
    """All slopes m_i(f) for i < n with a_i != 0, plus the extremes.

    ``entries`` are the points (i, v_p(a_i)) for i < n, ascending; the
    slope of an entry is (leading_valuation - v, degree - i).
    ``newton_index`` (None for an empty table) and ``index_of_max``, the
    indices attaining it in ascending order, are found once, when the
    table is built; they are derived, not fields.
    """

    __slots__ = ("degree", "leading_valuation", "entries", "index_of_max", "newton_index")
    _fields = __slots__[:3]

    def __init__(self, degree: int, leading_valuation: int, entries: tuple[Point, ...]):
        _bind(self, "degree", degree)
        _bind(self, "leading_valuation", leading_valuation)
        _bind(self, "entries", entries)
        at, index = _steepest(entries, degree, leading_valuation)
        _bind(self, "index_of_max", at)
        _bind(self, "newton_index", index)

    def slope_at(self, i: int) -> Slope | None:
        """The slope m_i in lowest terms, or None when a_i = 0 or i >= n."""
        for j, v in self.entries:
            if j == i:
                rise, width = self.leading_valuation - v, self.degree - i
                g = math.gcd(rise, width)
                return rise // g, width // g
        return None


def slope_table(inp: AnalysisInput) -> SlopeTable:
    """Slope table of a validated analysis input."""
    points = valuation_points(inp.poly, inp.prime)
    n, vn = points.pop()
    return SlopeTable(n, vn, tuple(points))


def newton_index(f: Polynomial, p: int) -> Slope:
    """Largest slope max_i (v(a_n) - v(a_i)) / (n - i) over i < n with
    a_i != 0, in lowest terms.

    Unlike :func:`slope_table` this accepts any nonconstant,
    non-monomial polynomial, so it also applies to degree-1 factors
    when checking multiplicativity of the index.
    """
    if f.degree < 1:
        raise ValueError("newton index needs degree >= 1")
    if all(c == 0 for c in f.coeffs[:-1]):
        raise ValueError("newton index of a monomial is undefined")
    points = valuation_points(f, p)
    n, vn = points.pop()
    return _steepest(points, n, vn)[1]
