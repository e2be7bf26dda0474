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

Slopes are compared as cross-multiplied integers, a/b >= c/d iff
a*d >= c*b for widths b, d > 0; ``Fraction`` values are built only as
results (the table's entries, the index), never to compare.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .polynomial import AnalysisInput, InternalError, Polynomial, _bind, _Value
from .valuation import Slope, p_adic_valuation

__all__ = [
    "ValuationPoint",
    "NewtonPolygon",
    "SlopeEntry",
    "SlopeTable",
    "valuation_points",
    "lower_convex_hull",
    "newton_polygon",
    "slope_table",
    "newton_index",
]


class ValuationPoint(NamedTuple):
    """Lattice point (exponent, valuation of that coefficient)."""

    index: int
    valuation: int


def valuation_points(f: Polynomial, p: int) -> list[ValuationPoint]:
    """Points (i, v_p(a_i)) for the nonzero coefficients of f, ascending index."""
    return [ValuationPoint(i, p_adic_valuation(c, p)) for i, c in enumerate(f.coeffs) if c]


class NewtonPolygon(_Value):
    """Lower convex hull of the valuation points of a polynomial.

    Construction re-checks the hull invariants: vertex x-coordinates
    strictly increasing, edge slopes strictly increasing, and every
    point on or above the hull.  A failed check is an InternalError,
    since the hull builder is what broke.
    """

    __slots__ = ("points", "vertices")

    def __init__(self, points: tuple[ValuationPoint, ...], vertices: tuple[ValuationPoint, ...]):
        _bind(self, "points", points)
        _bind(self, "vertices", vertices)
        if len(vertices) < 2:
            raise InternalError("a polygon needs at least two vertices")
        steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(vertices, vertices[1:])]
        if min(width for width, _ in steps) <= 0:
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


def lower_convex_hull(points: Sequence[ValuationPoint]) -> NewtonPolygon:
    """Lower convex hull of points sorted by index, as a NewtonPolygon.

    Monotone-chain construction; the predicate is an integer cross
    product, so no division occurs.  Collinear interior points are
    dropped (cross product 0 pops them), leaving the minimal vertex set.
    """
    if len(points) < 2:
        raise ValueError("need at least two points for a hull")
    hull: list[ValuationPoint] = []
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


class SlopeEntry(NamedTuple):
    index: int
    valuation: int
    slope: Slope


def _argmax(slopes: Sequence[tuple[int, int]]) -> list[int]:
    """Positions of the largest rise/width among (rise, width) pairs, width > 0."""
    best, at = None, []
    for k, (rise, width) in enumerate(slopes):
        gap = 1 if best is None else rise * best[1] - best[0] * width
        if gap > 0:
            best, at = (rise, width), [k]
        elif gap == 0:
            at.append(k)
    return at


class SlopeTable(_Value):
    """All slopes m_i(f) for i < n with a_i != 0, plus the extremes.

    ``newton_index`` (None for an empty table) and ``index_of_max``, the
    indices attaining it in ascending order, are found once, when the
    table is built; they are derived, not fields.
    """

    __slots__ = ("degree", "leading_valuation", "entries", "index_of_max", "newton_index")
    _fields = __slots__[:3]

    def __init__(self, degree: int, leading_valuation: int, entries: tuple[SlopeEntry, ...]):
        _bind(self, "degree", degree)
        _bind(self, "leading_valuation", leading_valuation)
        _bind(self, "entries", entries)
        at = _argmax([(leading_valuation - e.valuation, degree - e.index) for e in entries])
        _bind(self, "index_of_max", tuple(entries[k].index for k in at))
        _bind(self, "newton_index", entries[at[0]].slope if at else None)

    def slope_at(self, i: int) -> Optional[Slope]:
        for entry in self.entries:
            if entry.index == i:
                return entry.slope
        return None


def slope_table(inp: AnalysisInput) -> SlopeTable:
    """Slope table of a validated analysis input."""
    *points, (n, vn) = valuation_points(inp.poly, inp.prime)
    entries = tuple(SlopeEntry(i, v, Fraction(vn - v, n - i)) for i, v in points)
    return SlopeTable(degree=n, leading_valuation=vn, entries=entries)


def newton_index(f: Polynomial, p: int) -> Slope:
    """Largest slope max_i (v(a_n) - v(a_i)) / (n - i) over i < n with a_i != 0.

    Unlike :func:`slope_table` this accepts any nonconstant,
    non-monomial polynomial, so it also applies to degree-1 factors
    when checking multiplicativity of the index.
    """
    if f.degree < 1:
        raise ValueError("newton index needs degree >= 1")
    if all(c == 0 for c in f.coeffs[:-1]):
        raise ValueError("newton index of a monomial is undefined")
    *points, (n, vn) = valuation_points(f, p)
    slopes = [(vn - v, n - i) for i, v in points]
    return Fraction(*slopes[_argmax(slopes)[0]])
