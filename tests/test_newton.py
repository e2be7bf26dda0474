import itertools
import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import hypothesis
import pytest
from hypothesis import strategies as st

from newton_gauge import criteria, newton
from newton_gauge.criteria import (
    AlphaSplit,
    Certificate,
    CriteriaParameters,
    DegreeZeroFactor,
    FactorDegreeMultipleOf,
    Irreducible,
    analyze,
)
from newton_gauge.newton import (
    NewtonPolygon,
    SlopeTable,
    lower_convex_hull,
    newton_index,
    newton_polygon,
    slope_table,
    valuation_points,
)
from newton_gauge.polynomial import AnalysisInput, InternalError, Polynomial, parse_polynomial
from newton_gauge.report import SCHEMA_VERSION, analysis_report, certificate_dict
from newton_gauge.valuation import p_adic_valuation


def _pts(*pairs):
    return list(pairs)


def _edge_vectors(vertices):
    """(width, rise) of each hull edge, from its vertex pair."""
    return [(bi - ai, bv - av) for (ai, av), (bi, bv) in zip(vertices, vertices[1:])]


def _slopes(polygon):
    return tuple(Fraction(rise, width) for width, rise in _edge_vectors(polygon.vertices))


def _slope_map(table):
    return {i: table.slope_at(i) for i, _ in table.entries}


def _index_of_product(f, g, p):
    return slope_table(AnalysisInput(f * g, p)).newton_index


def _max_slope(*slopes):
    return max(slopes, key=lambda m: Fraction(*m))


def _naive_lower_hull(points):
    """Gift-wrapping reference: smallest next slope, farthest point on ties."""
    pts = sorted(points)
    current = pts[0]
    verts = [current]
    while current != pts[-1]:
        rest = [q for q in pts if q[0] > current[0]]
        nxt = min(
            rest,
            key=lambda q: (Fraction(q[1] - current[1], q[0] - current[0]), -q[0]),
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
    assert _edge_vectors(poly.vertices) == [(3, -2), (3, -1)]


def test_hull_matches_gift_wrapping_reference():
    rng = random.Random(424242)
    for _ in range(2000):
        count = rng.randint(2, 12)
        indices = sorted(rng.sample(range(0, 30), count))
        points = [(i, rng.randint(0, 12)) for i in indices]
        assert lower_convex_hull(points).vertices == _naive_lower_hull(points)


def test_hull_needs_two_points():
    with pytest.raises(ValueError):
        lower_convex_hull(_pts((0, 0)))


def test_polygon_invariants_reject_bad_vertex_sets():
    pts = _pts((0, 2), (1, 0), (2, 2))
    with pytest.raises(InternalError, match="at least two"):
        NewtonPolygon(points=tuple(pts), vertices=tuple(_pts((0, 2))))
    with pytest.raises(InternalError, match="strictly increase"):
        NewtonPolygon(points=tuple(pts), vertices=tuple(_pts((1, 0), (1, 2))))
    with pytest.raises(InternalError, match="slopes must strictly increase"):
        NewtonPolygon(
            points=tuple(pts), vertices=tuple(_pts((0, 2), (1, 1), (2, 0)))
        )
    with pytest.raises(InternalError, match="below the hull"):
        NewtonPolygon(points=tuple(pts), vertices=tuple(_pts((0, 2), (2, 2))))


def test_slope_table_example():
    table = slope_table(AnalysisInput(parse_polynomial("x^6+2*x^3+8"), 2))
    assert table.degree == 6
    assert table.leading_valuation == 0
    assert table.entries == ((0, 3), (3, 1))
    assert _slope_map(table) == {0: (-1, 2), 3: (-1, 3)}
    assert table.newton_index == (-1, 3)
    assert table.index_of_max == (3,)
    assert table.slope_at(3) == (-1, 3)
    assert table.slope_at(1) is None


def test_slope_table_records_ties():
    table = slope_table(AnalysisInput(parse_polynomial("x^2+3x+9"), 3))
    assert _slope_map(table) == {0: (-1, 1), 1: (-1, 1)}
    assert table.index_of_max == (0, 1)


def test_slope_table_steep_interior_point():
    f = parse_polynomial("512x^5+512x^2+2x+1")
    table = slope_table(AnalysisInput(f, 2))
    assert _slope_map(table) == {0: (9, 5), 1: (2, 1), 2: (0, 1)}
    assert table.newton_index == (2, 1)
    assert table.index_of_max == (1,)


def test_newton_index_on_low_degree_factors():
    assert newton_index(parse_polynomial("x+2"), 2) == (-1, 1)
    assert newton_index(parse_polynomial("x+1"), 2) == (0, 1)
    assert newton_index(parse_polynomial("2x+8"), 2) == (-2, 1)
    assert newton_index(parse_polynomial("x^2+4"), 2) == (-1, 1)
    with pytest.raises(ValueError, match="degree >= 1"):
        newton_index(parse_polynomial("5"), 2)
    with pytest.raises(ValueError, match="monomial"):
        newton_index(parse_polynomial("3x^4"), 2)


def test_newton_index_of_product_examples():
    f = parse_polynomial("x+2")
    g = parse_polynomial("x+4")
    assert _index_of_product(f, g, 2) == (-1, 1)
    assert _index_of_product(f, g, 2) == _max_slope(
        newton_index(f, 2), newton_index(g, 2)
    )
    h = parse_polynomial("x+1")
    assert _index_of_product(h, h, 2) == (0, 1)


def test_newton_index_multiplicative_random():
    rng = random.Random(99)
    for _ in range(2000):
        p = rng.choice([2, 3, 5])
        f = _random_poly(rng)
        g = _random_poly(rng)
        assert _index_of_product(f, g, p) == _max_slope(
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


# ---------------------------------------------------------------------------
# The integer analysis core against Fraction-based references of the code
# it replaced.
#
# The _reference_* helpers compute as earlier versions did: every table
# entry's slope a Fraction, the maximum slope and its ties recomputed with
# Fraction comparisons on every read, u = n(n-s)(m_s - m_0) in Fraction
# arithmetic and the certificate from the decision table, the hull
# invariants checked through Fraction edge slopes and every point against
# every vertex pair, and the degree pairs as a set of subset sums read from
# the edges of a second, gift-wrapped hull.


def _v(c, p):
    # Looked up on each call, so a test that patches newton's valuation
    # patches the reference's too.
    return newton.p_adic_valuation(c, p)


class _RefEntry(NamedTuple):
    index: int
    valuation: int
    slope: Fraction


def _reference_entries(f, p):
    n = f.degree
    vn = _v(f.leading_coefficient, p)
    return tuple(
        _RefEntry(i, _v(c, p), Fraction(vn - _v(c, p), n - i))
        for i, c in enumerate(f.coeffs[:-1])
        if c != 0
    )


def _reference_newton_index(entries):
    return max(entry.slope for entry in entries)


def _reference_index_of_max(entries):
    best = _reference_newton_index(entries)
    return tuple(e.index for e in entries if e.slope == best)


def _reference_certificate(n, entries):
    ties = _reference_index_of_max(entries)
    if len(ties) > 1:
        top, at = _reference_newton_index(entries), ",".join(map(str, ties))
        return Certificate("none", None, (), (f"no-strict-dominant-index: max slope {top} at indices {at}",))
    (s,) = ties
    m_s, m_0 = (next(e.slope for e in entries if e.index == i) for i in (s, 0))
    c_s, c_n, u = m_s * (n - s), m_0 * n, n * (n - s) * (m_s - m_0)
    assert c_s.denominator == c_n.denominator == u.denominator == 1
    c_s, c_n, u = int(c_s), int(c_n), int(u)
    d = math.gcd(c_s, n - s)
    modulus = (n - s) // d
    params = CriteriaParameters(n, s, c_s, c_n, d, u, modulus)
    clauses = (Irreducible(), DegreeZeroFactor(), FactorDegreeMultipleOf(modulus))
    if s == 0:
        if d == 1:
            return Certificate("T1", params, clauses[:2])
        return Certificate("Dumas-s0", params, clauses)
    if u == d:
        return Certificate("TA" if d == 1 else "T1", params, clauses)
    return Certificate("TB" if d == 1 else "T2", params, clauses + (AlphaSplit(modulus, u // d),))


def _reference_polygon_error(points, vertices):
    """The InternalError message the old NewtonPolygon raised, or None."""
    if len(vertices) < 2:
        return "a polygon needs at least two vertices"
    for (ai, _), (bi, _) in zip(vertices, vertices[1:]):
        if ai >= bi:
            return "hull vertex indices must strictly increase"
    slopes = [Fraction(rise, width) for width, rise in _edge_vectors(vertices)]
    for m1, m2 in zip(slopes, slopes[1:]):
        if m1 >= m2:
            return "hull edge slopes must strictly increase"
    for pt in points:
        i, v = pt
        for (ai, av), (bi, bv) in zip(vertices, vertices[1:]):
            if ai <= i <= bi:
                if (v - av) * (bi - ai) < (bv - av) * (i - ai):
                    return f"point {pt} lies below the hull"
                break
        else:
            return f"point {pt} lies below the hull"
    return None


def _reference_degree_pairs(vertices, n):
    achievable = {0}
    for width, rise in _edge_vectors(vertices):
        g = math.gcd(rise, width)
        e = width // g
        achievable = {a + k * e for a in achievable for k in range(g + 1)}
    return tuple(sorted({(min(a, n - a), max(a, n - a)) for a in achievable}))


def _reference_report(inp):
    f, p = inp.poly, inp.prime
    entries = _reference_entries(f, p)
    ties = _reference_index_of_max(entries)
    points = tuple((i, _v(c, p)) for i, c in enumerate(f.coeffs) if c)
    vertices = _naive_lower_hull(points)
    assert _reference_polygon_error(points, vertices) is None
    pairs = _reference_degree_pairs(vertices, f.degree)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "analysis",
        "input": {"polynomial": str(f), "prime": p},
        "valuation_points": [list(pt) for pt in points],
        "polygon_vertices": [list(pt) for pt in vertices],
        "slope_table": {
            "degree": f.degree,
            "leading_valuation": points[-1][1],
            "entries": [
                {"index": e.index, "valuation": e.valuation, "slope": str(e.slope)}
                for e in entries
            ],
            "newton_index": str(_reference_newton_index(entries)),
            "index_of_max": list(ties),
            "dominant_index": ties[0] if len(ties) == 1 else None,
        },
        "certificate": certificate_dict(_reference_certificate(f.degree, entries)),
        "dumas_degree_pairs": [list(pair) for pair in pairs],
    }


def _assert_reports_agree(inp):
    analysis = analyze(inp)
    report = analysis_report(analysis)
    expected = _reference_report(inp)
    assert report == expected
    # The values behind the text: slopes in lowest terms, equal to the
    # reference's Fractions, and the certificate and pairs as built.
    entries = _reference_entries(inp.poly, inp.prime)
    table = analysis.table
    for i, _ in table.entries:
        m = next(e.slope for e in entries if e.index == i)
        assert table.slope_at(i) == (m.numerator, m.denominator)
    m = _reference_newton_index(entries)
    assert table.newton_index == (m.numerator, m.denominator)
    assert analysis.certificate == _reference_certificate(inp.degree, entries)
    assert [list(pair) for pair in analysis.dumas_pairs] == expected["dumas_degree_pairs"]
    return report


def _box(max_degree, bound):
    ends = [c for c in range(-bound, bound + 1) if c]
    for n in range(2, max_degree + 1):
        for coeffs in itertools.product(ends, *[range(-bound, bound + 1)] * (n - 1), ends):
            yield Polynomial(coeffs)


def test_reports_match_the_reference_on_the_exhaustive_box():
    seen = set()
    for f in _box(4, 2):
        for p in (2, 3):
            report = _assert_reports_agree(AnalysisInput(f, p))
            table = report["slope_table"]
            if len(table["index_of_max"]) > 1:
                seen.add("tie")
            if table["dominant_index"] == 0:
                seen.add("s=0")
            if len(report["polygon_vertices"]) == 2:
                seen.add("single segment")
            if len(report["polygon_vertices"]) > 2:
                seen.add("several segments")
    assert seen == {"tie", "s=0", "single segment", "several segments"}


def test_reports_match_the_reference_on_a_seeded_acceptance_box_sample():
    # The acceptance box: degrees 2-5, |a_i| <= 3 with a_0, a_n != 0, p = 2, 3.
    rng = random.Random(20_001)
    ends = [c for c in range(-3, 4) if c]
    tags = Counter()
    for _ in range(3_000):
        n = rng.randint(2, 5)
        f = Polynomial([rng.choice(ends), *(rng.randint(-3, 3) for _ in range(n - 1)), rng.choice(ends)])
        for p in (2, 3):
            tags[_assert_reports_agree(AnalysisInput(f, p))["certificate"]["theorem"]] += 1
    assert set(tags) == {"T1", "TA", "TB", "Dumas-s0", "none"}


def test_reports_match_the_reference_on_the_p_power_degree_3_box():
    # Every cubic with coefficients in {0, +-1, +-2, +-3, +-4, +-8, +-9},
    # a_0 != 0 and a_3 > 0: valuations up to 3 at p = 2 and 2 at p = 3.
    values = (0, 1, -1, 2, -2, 3, -3, 4, -4, 8, -8, 9, -9)
    tags = Counter()
    for a3, a0, a1, a2 in itertools.product([v for v in values if v > 0], values[1:], values, values):
        for p in (2, 3):
            inp = AnalysisInput(Polynomial((a0, a1, a2, a3)), p)
            tags[_assert_reports_agree(inp)["certificate"]["theorem"]] += 1
    assert set(tags) == set(criteria.THEOREM_TAGS)


def _bigval_shaped(rng, valuations):
    """Degree 20-59, 60% of the interior nonzero, coefficients u*p^k with
    p not dividing u and k <= 2000; each k goes into valuations."""
    n = rng.randint(20, 59)
    p = rng.choice((2, 3, 5, 7))
    support = {0, n, *rng.sample(range(1, n), round(0.6 * (n - 1)))}
    coeffs = [0] * (n + 1)
    for i in support:
        u = rng.choice([u for u in range(-20, 21) if u % p])
        k = rng.randint(0, 2000)
        coeffs[i] = u * p**k
        valuations[coeffs[i], p] = k
    return AnalysisInput(Polynomial(coeffs), p)


def test_reports_match_the_reference_on_bigval_shaped_inputs(monkeypatch):
    # The valuations are known by construction: computing them (quadratic
    # in bit length, tested in test_valuation.py) would take seconds here.
    valuations = {}
    rng = random.Random(20240612)
    inputs = [_bigval_shaped(rng, valuations) for _ in range(200)]
    for c, p in list(valuations)[:20]:
        assert p_adic_valuation(c, p) == valuations[c, p]
    monkeypatch.setattr(newton, "p_adic_valuation", lambda c, p: valuations[c, p])
    for inp in inputs:
        _assert_reports_agree(inp)


@st.composite
def _small_inputs(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(2, 8))
    coeff = st.tuples(st.integers(-3, 3), st.integers(0, 4)).map(lambda uk: uk[0] * p ** uk[1])
    nonzero = coeff.filter(bool)
    coeffs = [draw(nonzero), *(draw(coeff) for _ in range(n - 1)), draw(nonzero)]
    return AnalysisInput(Polynomial(coeffs), p)


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
@hypothesis.given(_small_inputs())
def test_reports_match_the_reference_on_generated_inputs(inp):
    _assert_reports_agree(inp)


def test_newton_index_matches_the_reference_down_to_degree_one():
    for n in (1, 2, 3):
        for f in itertools.starmap(
            lambda *c: Polynomial(c),
            itertools.product(range(-4, 5), *[range(-4, 5)] * (n - 1), (-2, 1, 4)),
        ):
            if all(c == 0 for c in f.coeffs[:-1]):
                continue
            for p in (2, 3):
                m = _reference_newton_index(_reference_entries(f, p))
                assert newton_index(f, p) == (m.numerator, m.denominator)


def test_slope_table_argmax_matches_the_reference_on_built_tables():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(1, 9)
        vn = rng.randint(0, 6)
        indices = sorted(rng.sample(range(n), rng.randint(1, n)))
        entries = tuple((i, rng.randint(0, 6)) for i in indices)
        reference = tuple(_RefEntry(i, v, Fraction(vn - v, n - i)) for i, v in entries)
        table = SlopeTable(n, vn, entries)
        m = _reference_newton_index(reference)
        assert table.newton_index == (m.numerator, m.denominator)
        assert table.index_of_max == _reference_index_of_max(reference)
        rebuilt = pickle.loads(pickle.dumps(table))
        assert (rebuilt.index_of_max, rebuilt.newton_index) == (table.index_of_max, table.newton_index)
    assert SlopeTable(3, 0, ()).index_of_max == ()


def test_polygon_checks_match_the_reference():
    rng = random.Random(31337)
    messages = Counter()
    for _ in range(3000):
        count = rng.randint(2, 8)
        points = [(i, rng.randint(0, 6)) for i in sorted(rng.sample(range(12), count))]
        if rng.random() < 0.2:
            rng.shuffle(points)
        hull = list(_naive_lower_hull(points))
        choice = rng.random()
        if choice < 0.3:
            vertices = hull
        elif choice < 0.6:
            vertices = sorted(rng.sample(points, rng.randint(1, count)))
        elif choice < 0.8:
            vertices = [(i, v + rng.choice((-1, 0, 1))) for i, v in hull]
        else:
            vertices = rng.sample(points, rng.randint(2, count))
        expected = _reference_polygon_error(tuple(points), tuple(vertices))
        messages[expected.split(" ")[0] if expected else None] += 1
        if expected is None:
            NewtonPolygon(tuple(points), tuple(vertices))
        else:
            with pytest.raises(InternalError) as caught:
                NewtonPolygon(tuple(points), tuple(vertices))
            assert str(caught.value) == expected
    assert set(messages) == {None, "a", "hull", "point"}
    assert messages["hull"] > 100 and messages["point"] > 100


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_analysis_builds_one_hull_one_table_and_two_valuations_per_point(monkeypatch):
    hulls = _counting(monkeypatch, newton, "lower_convex_hull")
    valuations = _counting(monkeypatch, newton, "p_adic_valuation")
    tables = _counting(monkeypatch, SlopeTable, "__init__")
    degree_sets = _counting(monkeypatch, criteria, "dumas_degree_sets")
    for text in ("x^6+2*x^3+8", "x^2+3x+9", "512x^5+512x^2+2x+1", "3x^7-9x^4+27"):
        f = parse_polynomial(text)
        del hulls[:], valuations[:], tables[:]
        criteria.analyze(AnalysisInput(f, 3))
        assert (len(hulls), len(tables), len(degree_sets)) == (1, 1, 0)
        assert len(valuations) == 2 * sum(1 for c in f.coeffs if c)


def test_newton_index_builds_no_slope_table(monkeypatch):
    valuations = _counting(monkeypatch, newton, "p_adic_valuation")
    tables = _counting(monkeypatch, SlopeTable, "__init__")
    for text in ("x+2", "2x+8", "x^5+4x^2+2", "3x^4-9x+27"):
        f = parse_polynomial(text)
        del valuations[:]
        newton_index(f, 2)
        assert len(valuations) == sum(1 for c in f.coeffs if c)
    assert tables == []
