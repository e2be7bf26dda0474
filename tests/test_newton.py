import random
from fractions import Fraction

import pytest

from newton_gauge.newton import (
    NewtonPolygon,
    ValuationPoint,
    lower_convex_hull,
    newton_index,
    newton_polygon,
    slope_table,
    valuation_points,
)
from newton_gauge.polynomial import AnalysisInput, parse_polynomial


def _pts(*pairs):
    return [ValuationPoint(i, v) for i, v in pairs]


def _slopes(polygon):
    return tuple(edge.slope for edge in polygon.edges)


def _slope_map(table):
    return {e.index: e.slope for e in table.entries}


def _index_of_product(f, g, p):
    return slope_table(AnalysisInput(f * g, p)).newton_index


def _naive_lower_hull(points):
    """Gift-wrapping reference: smallest next slope, farthest point on ties."""
    pts = sorted(points)
    current = pts[0]
    verts = [current]
    while current != pts[-1]:
        rest = [q for q in pts if q.index > current.index]
        nxt = min(
            rest,
            key=lambda q: (
                Fraction(q.valuation - current.valuation, q.index - current.index),
                -q.index,
            ),
        )
        verts.append(nxt)
        current = nxt
    return tuple(verts)


def test_valuation_points_skip_zero_coefficients():
    f = parse_polynomial("x^6+2*x^3+8")
    assert valuation_points(f, 2) == _pts((0, 3), (3, 1), (6, 0))
    g = parse_polynomial("x^2-1")
    assert valuation_points(g, 2) == _pts((0, 0), (2, 0))


def test_hull_drops_collinear_points():
    poly = lower_convex_hull(_pts((0, 0), (1, 1), (2, 2), (3, 3)))
    assert poly.vertices == tuple(_pts((0, 0), (3, 3)))
    assert _slopes(poly) == (Fraction(1),)


def test_hull_of_v_shape():
    poly = lower_convex_hull(_pts((0, 3), (1, 1), (2, 2), (3, 0), (4, 4)))
    assert poly.vertices == tuple(_pts((0, 3), (1, 1), (3, 0), (4, 4)))
    assert _slopes(poly) == (Fraction(-2), Fraction(-1, 2), Fraction(4))


def test_newton_polygon_example():
    poly = newton_polygon(parse_polynomial("x^6+2*x^3+8"), 2)
    assert poly.vertices == tuple(_pts((0, 3), (3, 1), (6, 0)))
    assert _slopes(poly) == (Fraction(-2, 3), Fraction(-1, 3))
    assert [e.width for e in poly.edges] == [3, 3]
    assert [e.rise for e in poly.edges] == [-2, -1]


def test_hull_matches_gift_wrapping_reference():
    rng = random.Random(424242)
    for _ in range(2000):
        count = rng.randint(2, 12)
        indices = sorted(rng.sample(range(0, 30), count))
        points = [ValuationPoint(i, rng.randint(0, 12)) for i in indices]
        assert lower_convex_hull(points).vertices == _naive_lower_hull(points)


def test_hull_needs_two_points():
    with pytest.raises(ValueError):
        lower_convex_hull(_pts((0, 0)))


def test_polygon_invariants_reject_bad_vertex_sets():
    pts = _pts((0, 2), (1, 0), (2, 2))
    with pytest.raises(ValueError, match="at least two"):
        NewtonPolygon(points=tuple(pts), vertices=tuple(_pts((0, 2))))
    with pytest.raises(ValueError, match="strictly increase"):
        NewtonPolygon(points=tuple(pts), vertices=tuple(_pts((1, 0), (1, 2))))
    with pytest.raises(ValueError, match="slopes must strictly increase"):
        NewtonPolygon(
            points=tuple(pts), vertices=tuple(_pts((0, 2), (1, 1), (2, 0)))
        )
    with pytest.raises(ValueError, match="below the hull"):
        NewtonPolygon(points=tuple(pts), vertices=tuple(_pts((0, 2), (2, 2))))


def test_slope_table_example():
    table = slope_table(AnalysisInput(parse_polynomial("x^6+2*x^3+8"), 2))
    assert table.degree == 6
    assert table.leading_valuation == 0
    assert _slope_map(table) == {0: Fraction(-1, 2), 3: Fraction(-1, 3)}
    assert table.newton_index == Fraction(-1, 3)
    assert table.index_of_max == (3,)
    assert table.slope_at(3) == Fraction(-1, 3)
    assert table.slope_at(1) is None


def test_slope_table_records_ties():
    table = slope_table(AnalysisInput(parse_polynomial("x^2+3x+9"), 3))
    assert _slope_map(table) == {0: Fraction(-1), 1: Fraction(-1)}
    assert table.index_of_max == (0, 1)


def test_slope_table_steep_interior_point():
    f = parse_polynomial("512x^5+512x^2+2x+1")
    table = slope_table(AnalysisInput(f, 2))
    assert _slope_map(table) == {0: Fraction(9, 5), 1: Fraction(2), 2: Fraction(0)}
    assert table.newton_index == Fraction(2)
    assert table.index_of_max == (1,)


def test_newton_index_on_low_degree_factors():
    assert newton_index(parse_polynomial("x+2"), 2) == Fraction(-1)
    assert newton_index(parse_polynomial("x+1"), 2) == Fraction(0)
    assert newton_index(parse_polynomial("2x+8"), 2) == Fraction(-2)
    with pytest.raises(ValueError, match="degree >= 1"):
        newton_index(parse_polynomial("5"), 2)
    with pytest.raises(ValueError, match="monomial"):
        newton_index(parse_polynomial("3x^4"), 2)


def test_newton_index_of_product_examples():
    f = parse_polynomial("x+2")
    g = parse_polynomial("x+4")
    assert _index_of_product(f, g, 2) == Fraction(-1)
    assert _index_of_product(f, g, 2) == max(
        newton_index(f, 2), newton_index(g, 2)
    )
    h = parse_polynomial("x+1")
    assert _index_of_product(h, h, 2) == Fraction(0)


def test_newton_index_multiplicative_random():
    rng = random.Random(99)
    for _ in range(2000):
        p = rng.choice([2, 3, 5])
        f = _random_poly(rng)
        g = _random_poly(rng)
        assert _index_of_product(f, g, p) == max(
            newton_index(f, p), newton_index(g, p)
        )


def _random_poly(rng):
    deg = rng.randint(1, 5)
    coeffs = [rng.choice([c for c in range(-20, 21) if c != 0])]
    coeffs += [rng.randint(-20, 20) for _ in range(deg - 1)]
    coeffs.append(rng.choice([c for c in range(-20, 21) if c != 0]))
    return parse_polynomial(
        "+".join(f"({c})*x^{i}" for i, c in enumerate(coeffs))
    )
