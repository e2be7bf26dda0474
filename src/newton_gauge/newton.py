"""Newton polygon geometry: valuation points, lower hull, slopes, Newton index.

For f = a_0 + a_1 x + ... + a_n x^n and a prime p, each nonzero
coefficient contributes a lattice point (i, v_p(a_i)).  The Newton
polygon is the lower convex hull of those points.  The slope table
records, for every index i < n with a_i != 0, the exact rational

    m_i(f) = (v_p(a_n) - v_p(a_i)) / (n - i),

and the Newton index e(f) is the largest such slope.  Indices with
a_i = 0 contribute no slope (morally slope minus infinity), so skipping
them is exact.  The index is multiplicative: e(f*g) = max(e(f), e(g)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .polynomial import AnalysisInput, Polynomial
from .valuation import Slope, p_adic_valuation

__all__ = [
    "ValuationPoint",
    "Edge",
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
    return [
        ValuationPoint(i, p_adic_valuation(c, p))
        for i, c in enumerate(f.coeffs)
        if c != 0
    ]


def _cross(o: ValuationPoint, a: ValuationPoint, b: ValuationPoint) -> int:
    """Integer cross product of (o->a) x (o->b); positive iff o,a,b turn left."""
    return (a.index - o.index) * (b.valuation - o.valuation) - (
        a.valuation - o.valuation
    ) * (b.index - o.index)


@dataclass(frozen=True)
class Edge:
    """One polygon segment, with exact slope and lattice data."""

    start: ValuationPoint
    end: ValuationPoint

    @property
    def slope(self) -> Slope:
        return Fraction(
            self.end.valuation - self.start.valuation, self.end.index - self.start.index
        )

    @property
    def width(self) -> int:
        return self.end.index - self.start.index

    @property
    def rise(self) -> int:
        return self.end.valuation - self.start.valuation


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of the valuation points of a polynomial.

    Construction re-checks the hull invariants: vertex x-coordinates
    strictly increasing, edge slopes strictly increasing, and every
    point on or above the hull.
    """

    points: tuple[ValuationPoint, ...]
    vertices: tuple[ValuationPoint, ...]

    def __post_init__(self):
        verts = self.vertices
        if len(verts) < 2:
            raise ValueError("a polygon needs at least two vertices")
        for a, b in zip(verts, verts[1:]):
            if a.index >= b.index:
                raise ValueError("hull vertex indices must strictly increase")
        edges = self.edges
        for e1, e2 in zip(edges, edges[1:]):
            if e1.slope >= e2.slope:
                raise ValueError("hull edge slopes must strictly increase")
        for pt in self.points:
            if not self._on_or_above(pt):
                raise ValueError(f"point {pt} lies below the hull")

    def _on_or_above(self, pt: ValuationPoint) -> bool:
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a.index <= pt.index <= b.index:
                # (pt.valuation - a.valuation)/(pt.index - a.index) >= slope,
                # cross-multiplied to stay in integers.
                return (pt.valuation - a.valuation) * (b.index - a.index) >= (
                    b.valuation - a.valuation
                ) * (pt.index - a.index)
        return False

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(
            Edge(self.vertices[k], self.vertices[k + 1])
            for k in range(len(self.vertices) - 1)
        )


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
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
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


@dataclass(frozen=True)
class SlopeTable:
    """All slopes m_i(f) for i < n with a_i != 0, plus the extremes."""

    degree: int
    leading_valuation: int
    entries: tuple[SlopeEntry, ...]

    @property
    def newton_index(self) -> Slope:
        return max(entry.slope for entry in self.entries)

    @property
    def index_of_max(self) -> tuple[int, ...]:
        """All indices attaining the maximal slope, ascending."""
        best = self.newton_index
        return tuple(e.index for e in self.entries if e.slope == best)

    def slope_at(self, i: int) -> Optional[Slope]:
        for entry in self.entries:
            if entry.index == i:
                return entry.slope
        return None


def slope_table(inp: AnalysisInput) -> SlopeTable:
    """Slope table of a validated analysis input."""
    return _slope_table_of(inp.poly, inp.prime)


def _slope_table_of(f: Polynomial, p: int) -> SlopeTable:
    n = f.degree
    vn = p_adic_valuation(f.leading_coefficient, p)
    entries = []
    for i, c in enumerate(f.coeffs[:-1]):
        if c == 0:
            continue
        vi = p_adic_valuation(c, p)
        entries.append(SlopeEntry(i, vi, Fraction(vn - vi, n - i)))
    return SlopeTable(degree=n, leading_valuation=vn, entries=tuple(entries))


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
    return _slope_table_of(f, p).newton_index

