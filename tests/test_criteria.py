import math
import random
from collections import Counter
from fractions import Fraction

import hypothesis
import pytest
from hypothesis import strategies as st

from newton_gauge import criteria
from newton_gauge.cli import EXIT_INTERNAL, main
from newton_gauge.criteria import (
    AlphaSplit,
    Certificate,
    CriteriaParameters,
    DegreeZeroFactor,
    FactorDegreeMultipleOf,
    Irreducible,
    analyze,
    check_theorem1,
    check_theorem2,
    compute_parameters,
    dumas_degree_sets,
)
from newton_gauge.families import example1_instances, example2_polynomial
from newton_gauge.newton import newton_index, slope_table
from newton_gauge.polynomial import AnalysisInput, InternalError, Polynomial, parse_polynomial


def _inp(text, p):
    return AnalysisInput(parse_polynomial(text), p)


def test_find_dominant_index():
    # The strict dominant index is the table's unique argmax, and the
    # certificate's s; a tie leaves no parameters.
    for text, p, s in (("x^6+2x^3+8", 2, 3), ("512x^5+512x^2+2x+1", 2, 1), ("x^2+2", 2, 0)):
        inp = _inp(text, p)
        assert slope_table(inp).index_of_max == (s,)
        assert analyze(inp).certificate.params.s == s
    tie = _inp("x^2+3x+9", 3)
    assert slope_table(tie).index_of_max == (0, 1)
    assert analyze(tie).certificate.params is None


def test_compute_parameters_interior_dominant():
    params = compute_parameters(_inp("x^6+2x^3+8", 2), 3)
    assert (params.n, params.s) == (6, 3)
    assert (params.c_s, params.c_n) == (-1, -3)
    assert (params.d, params.u, params.modulus) == (1, 3, 3)


def test_compute_parameters_steep_family_instance():
    params = compute_parameters(_inp("512x^5+512x^2+2x+1", 2), 1)
    assert (params.n, params.s) == (5, 1)
    assert (params.c_s, params.c_n) == (8, 9)
    assert (params.d, params.u, params.modulus) == (4, 4, 1)


def test_compute_parameters_two_segment_even_gcd():
    params = compute_parameters(_inp("x^12+4x^4+16", 2), 4)
    assert (params.n, params.s) == (12, 4)
    assert (params.c_s, params.c_n) == (-2, -4)
    assert (params.d, params.u, params.modulus) == (2, 8, 4)


def test_compute_parameters_constant_dominant():
    params = compute_parameters(_inp("x^2+2", 2), 0)
    assert (params.c_s, params.c_n, params.u) == (-1, -1, 0)
    assert (params.d, params.modulus) == (1, 2)


def test_parameters_validation():
    with pytest.raises(InternalError, match="divide"):
        CriteriaParameters(n=6, s=1, c_s=1, c_n=1, d=4, u=4, modulus=1)
    with pytest.raises(InternalError, match="s = 0"):
        CriteriaParameters(n=6, s=0, c_s=1, c_n=1, d=1, u=3, modulus=6)


def test_u_matches_slope_gap_identity():
    rng = random.Random(5150)
    checked = 0
    for _ in range(3000):
        p = rng.choice([2, 3, 5])
        deg = rng.randint(2, 6)
        coeffs = [rng.choice([c for c in range(-50, 51) if c != 0])]
        coeffs += [rng.randint(-50, 50) for _ in range(deg - 1)]
        coeffs.append(rng.choice([c for c in range(-50, 51) if c != 0]))
        inp = AnalysisInput(
            parse_polynomial("+".join(f"({c})x^{i}" for i, c in enumerate(coeffs))), p
        )
        table = slope_table(inp)
        s = _reference_dominant_index(table)
        if s is None:
            continue
        checked += 1
        params = compute_parameters(inp, s)
        m_s = Fraction(*table.slope_at(s))
        m_0 = Fraction(params.c_n, params.n)
        assert params.u == params.n * (params.n - params.s) * (m_s - m_0)
        assert params.u % params.d == 0
        if s != 0:
            assert params.u >= 1
            cert1, cert2 = check_theorem1(inp), check_theorem2(inp)
            assert cert1.applies != cert2.applies
    assert checked > 1000


def test_theorem1_interior_dominant_gcd_above_one():
    cert = check_theorem1(_inp("512x^5+512x^2+2x+1", 2))
    assert cert.theorem == "T1"
    assert cert.base_theorem == "T1"
    assert cert.params.modulus == 1
    assert cert.clauses == (
        Irreducible(),
        DegreeZeroFactor(),
        FactorDegreeMultipleOf(1),
    )


def test_theorem1_tight_case_is_tagged():
    cert = check_theorem1(_inp("x^2+2x+8", 2))
    assert cert.theorem == "TA"
    assert cert.base_theorem == "T1"
    assert (cert.params.d, cert.params.u, cert.params.modulus) == (1, 1, 1)


def test_theorem1_constant_dominant_eisenstein_shape():
    cert = check_theorem1(_inp("x^2+2", 2))
    assert cert.theorem == "T1"
    assert cert.params.s == 0
    assert cert.clauses == (Irreducible(), DegreeZeroFactor())


def test_theorem1_rejections_carry_reasons():
    cert = check_theorem1(_inp("x^6+2x^3+8", 2))
    assert cert.theorem == "none"
    assert cert.params is None
    assert cert.notes == ("theorem1-condition-b-failed: d=1 u=3 (need d=u)",)

    cert = check_theorem1(_inp("x^4+4x^2+4", 2))
    assert cert.notes == ("theorem1-s0-gcd-not-1: s=0 d=2",)

    cert = check_theorem1(_inp("x^2+3x+9", 3))
    assert cert.notes == ("no-strict-dominant-index: max slope -1 at indices 0,1",)


def test_theorem2_coprime_case_is_tagged():
    cert = check_theorem2(_inp("x^6+2x^3+8", 2))
    assert cert.theorem == "TB"
    assert cert.base_theorem == "T2"
    assert (cert.params.d, cert.params.u, cert.params.modulus) == (1, 3, 3)
    assert cert.clauses[3] == AlphaSplit(3, 3)


def test_theorem2_even_gcd_case():
    cert = check_theorem2(_inp("x^12+4x^4+16", 2))
    assert cert.theorem == "T2"
    assert (cert.params.d, cert.params.u, cert.params.modulus) == (2, 8, 4)
    assert cert.clauses == (
        Irreducible(),
        DegreeZeroFactor(),
        FactorDegreeMultipleOf(4),
        AlphaSplit(4, 4),
    )


def test_theorem2_small_even_case():
    cert = check_theorem2(_inp("x^6+4x^2+16", 2))
    assert cert.theorem == "T2"
    assert (cert.params.n, cert.params.s) == (6, 2)
    assert (cert.params.d, cert.params.u, cert.params.modulus) == (2, 4, 2)
    assert cert.clauses[3] == AlphaSplit(2, 2)


def test_theorem2_rejects_tight_case_and_defers_s0():
    cert = check_theorem2(_inp("512x^5+512x^2+2x+1", 2))
    assert cert.theorem == "none"
    assert cert.notes == (
        "theorem2-condition-b-failed: d=4 u=4 (need u>=2 and d a proper divisor of u)",
    )
    # s = 0 reduces to the first criterion
    assert check_theorem2(_inp("x^2+2", 2)) == check_theorem1(_inp("x^2+2", 2))


def test_clause_semantics():
    fdm = FactorDegreeMultipleOf(3)
    assert fdm.accepts((3, 1), False)
    assert fdm.accepts((0, 5), False)
    assert not fdm.accepts((1, 2), False)

    split = AlphaSplit(4, 2)
    assert split.accepts((2, 2), False)  # a1=1: 2-2=0
    assert not split.accepts((1, 2), False)
    assert split.accepts((1, 2), False) == split.accepts((2, 1), False)

    assert AlphaSplit(3, 3).accepts((1, 5), False)  # a1=1: 2*1-5=-3


# (split, content divisible) -> accepted, for each clause: split None
# means the witness has a single factor.
_ACCEPTS_TABLE = [
    (Irreducible(), None, False, True),
    (Irreducible(), None, True, False),
    (Irreducible(), (1, 2), False, False),
    (Irreducible(), (1, 2), True, False),
    (DegreeZeroFactor(), None, False, False),
    (DegreeZeroFactor(), None, True, True),
    (DegreeZeroFactor(), (1, 2), False, False),
    (DegreeZeroFactor(), (1, 2), True, True),
    (FactorDegreeMultipleOf(3), None, False, False),
    (FactorDegreeMultipleOf(3), None, True, False),
    (FactorDegreeMultipleOf(3), (1, 2), False, False),
    (FactorDegreeMultipleOf(3), (1, 2), True, False),
    (FactorDegreeMultipleOf(3), (3, 3), False, True),
    (FactorDegreeMultipleOf(3), (3, 3), True, True),
    (AlphaSplit(4, 2), None, False, False),
    (AlphaSplit(4, 2), None, True, False),
    (AlphaSplit(4, 2), (1, 2), False, False),
    (AlphaSplit(4, 2), (1, 2), True, False),
    (AlphaSplit(4, 2), (2, 2), False, True),
    (AlphaSplit(4, 2), (2, 2), True, True),
]


@pytest.mark.parametrize("clause, split, content_divisible, accepted", _ACCEPTS_TABLE)
def test_clause_accepts_table(clause, split, content_divisible, accepted):
    assert clause.accepts(split, content_divisible) is accepted


def test_alpha_split_closed_form_matches_the_loop():
    for modulus in range(1, 13):
        for total in range(41):
            clause = AlphaSplit(modulus, total)
            for d1 in range(13):
                for d2 in range(13):
                    by_loop = any(
                        ((total - a1) * d1 - a1 * d2) % modulus == 0
                        for a1 in range(1, total)
                    )
                    assert clause.accepts((d1, d2), False) == by_loop, (
                        d1, d2, modulus, total,
                    )


def test_alpha_split_huge_total_is_immediate():
    # the loop would run 10^12 times; the congruence answers at once
    assert AlphaSplit(1, 10**12).accepts((3, 4), False)
    assert not AlphaSplit(7, 10**12).accepts((3, 4), False)  # 7 | d1+d2, 7 !| total*d1
    assert AlphaSplit(7, 10**12 + 1).accepts((2, 3), False)  # least a1 = 5


def test_certificate_validation():
    with pytest.raises(InternalError, match="unknown theorem tag"):
        Certificate("T9", None, ())
    with pytest.raises(InternalError, match="params must be present"):
        Certificate("none", CriteriaParameters(2, 0, -1, -1, 1, 0, 2), ())
    with pytest.raises(InternalError, match="params must be present"):
        Certificate("T1", None, (Irreducible(),))


def test_dumas_degree_sets():
    assert dumas_degree_sets(_inp("x^2+2", 2)) == ((0, 2),)
    assert dumas_degree_sets(_inp("x^6+2x^3+8", 2)) == ((0, 6), (3, 3))
    assert dumas_degree_sets(_inp("x^2-1", 2)) == ((0, 2), (1, 1))
    assert dumas_degree_sets(_inp("x^12+4x^4+16", 2)) == (
        (0, 12),
        (2, 10),
        (4, 8),
        (6, 6),
    )


def test_analyze_precedence_and_composition():
    analysis = analyze(_inp("x^6+2x^3+8", 2))
    assert analysis.certificate.theorem == "TB"
    assert analysis.dumas_pairs == ((0, 6), (3, 3))
    assert analysis.table.index_of_max == (3,)
    assert analysis.polygon.vertices[0] == (0, 3)

    assert analyze(_inp("x^2+2", 2)).certificate.theorem == "T1"
    assert analyze(_inp("x^2+2x+8", 2)).certificate.theorem == "TA"
    assert analyze(_inp("x^12+4x^4+16", 2)).certificate.theorem == "T2"

    cert = analyze(_inp("x^2+3x+9", 3)).certificate
    assert cert.theorem == "none"
    assert cert.notes == ("no-strict-dominant-index: max slope -1 at indices 0,1",)


def test_analyze_single_segment_constant_dominant():
    cert = analyze(_inp("x^4+4x^2+4", 2)).certificate
    assert cert.theorem == "Dumas-s0"
    assert (cert.params.d, cert.params.modulus) == (2, 2)
    assert cert.clauses == (
        Irreducible(),
        DegreeZeroFactor(),
        FactorDegreeMultipleOf(2),
    )
    # flat polygon: valuation-free ends collapse to a width-n segment
    cert = analyze(_inp("x^2-1", 2)).certificate
    assert cert.theorem == "Dumas-s0"
    assert (cert.params.d, cert.params.modulus) == (2, 1)


def test_analyze_is_deterministic():
    a = analyze(_inp("x^6+2x^3+8", 2))
    b = analyze(_inp("x^6+2x^3+8", 2))
    assert a == b


# ---------------------------------------------------------------------------
# the four-step chain that analyze replaced, kept as the reference


def _reference_dominant_index(table):
    """The unique index attaining the maximal slope, or None on a tie."""
    argmax = table.index_of_max
    return argmax[0] if len(argmax) == 1 else None


def _reference_parameters(inp, s):
    table = slope_table(inp)
    n = table.degree
    vn = table.leading_valuation
    vs = next(v for i, v in table.entries if i == s)
    v0 = next(v for i, v in table.entries if i == 0)
    c_s = vn - vs
    c_n = vn - v0
    d = math.gcd(vs - vn, n - s)
    u = n * c_s - (n - s) * c_n
    return CriteriaParameters(n=n, s=s, c_s=c_s, c_n=c_n, d=d, u=u, modulus=(n - s) // d)


def _reference_no_dominant_note(table):
    ties = ",".join(str(i) for i in table.index_of_max)
    return f"no-strict-dominant-index: max slope {Fraction(*table.newton_index)} at indices {ties}"


def _reference_theorem1(inp):
    table = slope_table(inp)
    s = _reference_dominant_index(table)
    if s is None:
        return Certificate("none", None, (), (_reference_no_dominant_note(table),))
    params = _reference_parameters(inp, s)
    if s == 0:
        if params.d == 1:
            return Certificate("T1", params, (Irreducible(), DegreeZeroFactor()))
        return Certificate("none", None, (), (f"theorem1-s0-gcd-not-1: s=0 d={params.d}",))
    if params.d == params.u:
        tag = "TA" if params.d == 1 else "T1"
        clauses = (Irreducible(), DegreeZeroFactor(), FactorDegreeMultipleOf(params.modulus))
        return Certificate(tag, params, clauses)
    return Certificate(
        "none", None, (),
        (f"theorem1-condition-b-failed: d={params.d} u={params.u} (need d=u)",),
    )


def _reference_theorem2(inp):
    table = slope_table(inp)
    s = _reference_dominant_index(table)
    if s is None:
        return Certificate("none", None, (), (_reference_no_dominant_note(table),))
    if s == 0:
        return _reference_theorem1(inp)
    params = _reference_parameters(inp, s)
    if params.u >= 2 and params.u % params.d == 0 and params.d < params.u:
        tag = "TB" if params.d == 1 else "T2"
        clauses = (
            Irreducible(),
            DegreeZeroFactor(),
            FactorDegreeMultipleOf(params.modulus),
            AlphaSplit(params.modulus, params.u // params.d),
        )
        return Certificate(tag, params, clauses)
    return Certificate(
        "none", None, (),
        (
            f"theorem2-condition-b-failed: d={params.d} u={params.u}"
            " (need u>=2 and d a proper divisor of u)",
        ),
    )


def _reference_certificate(inp):
    """T1, then T2, then the s = 0 single-segment fallback, then "none"."""
    table = slope_table(inp)
    s = _reference_dominant_index(table)
    if s is None:
        return Certificate("none", None, (), (_reference_no_dominant_note(table),))
    cert1 = _reference_theorem1(inp)
    if cert1.applies:
        return cert1
    cert2 = _reference_theorem2(inp)
    if cert2.applies:
        return cert2
    params = _reference_parameters(inp, s)
    if s == 0 and params.d > 1:
        clauses = (Irreducible(), DegreeZeroFactor(), FactorDegreeMultipleOf(params.modulus))
        return Certificate("Dumas-s0", params, clauses)
    return Certificate("none", None, (), cert1.notes + cert2.notes)


def _equivalence_corpus():
    """Seeded inputs: 300 acceptance-box polynomials (degree 2-5,
    |a_i| <= 3) at p = 2 and 3, 120 u*p^k inputs of degree 20-59, and
    the example1 (n = 5-7) and example2 (d = 2-4) instances at p = 2, 3."""
    rng = random.Random(9)
    ends = (-3, -2, -1, 1, 2, 3)
    out = []
    for _ in range(300):
        n = rng.randint(2, 5)
        f = Polynomial(
            [rng.choice(ends)] + [rng.randint(-3, 3) for _ in range(n - 1)] + [rng.choice(ends)]
        )
        out += [AnalysisInput(f, 2), AnalysisInput(f, 3)]
    for _ in range(120):
        n, p, kmax = rng.randint(20, 59), rng.choice((2, 3, 5, 7)), rng.choice((3, 40))

        def coeff(nonzero):
            if not nonzero and rng.random() > 0.6:
                return 0
            return rng.choice(ends) * p ** rng.randint(0, kmax)

        coeffs = [coeff(True)] + [coeff(False) for _ in range(n - 1)] + [coeff(True)]
        out.append(AnalysisInput(Polynomial(coeffs), p))
    for p in (2, 3):
        for n in (5, 6, 7):
            out += [AnalysisInput(f, p) for f in example1_instances(n, p)]
        out += [AnalysisInput(example2_polynomial(d, p), p) for d in (2, 3, 4)]
    return out


def test_one_decision_table_matches_the_four_step_chain():
    tags = set()
    for inp in _equivalence_corpus():
        cert = analyze(inp).certificate
        assert cert == _reference_certificate(inp), (inp.poly, inp.prime)
        assert check_theorem1(inp) == _reference_theorem1(inp), (inp.poly, inp.prime)
        assert check_theorem2(inp) == _reference_theorem2(inp), (inp.poly, inp.prime)
        tags.add(cert.theorem)
    assert tags == {"T1", "TA", "T2", "TB", "Dumas-s0", "none"}


def test_analyze_builds_one_slope_table(monkeypatch):
    calls = []

    def counted(inp):
        calls.append(inp)
        return slope_table(inp)

    monkeypatch.setattr(criteria, "slope_table", counted)
    for text, p in (("x^6+2x^3+8", 2), ("x^4+4x^2+4", 2), ("x^2+3x+9", 3)):
        calls.clear()
        analyze(_inp(text, p))
        assert len(calls) == 1


@pytest.mark.parametrize("d,u", [(3, 1), (3, 0), (3, 4)])
def test_broken_u_d_invariant_is_an_internal_error(capsys, monkeypatch, d, u):
    # x^6+2x^3+8 at p = 2 has s = 3; real parameters d = 1, u = 3
    monkeypatch.setattr(
        criteria, "_parameters", lambda table, s: CriteriaParameters(6, s, -1, -3, d, u, 3 // d)
    )
    with pytest.raises(InternalError, match=f"needs d [|] u and u >= 1, got s=3 d={d} u={u}"):
        analyze(_inp("x^6+2x^3+8", 2))
    assert main(["analyze", "--poly", "x^6+2x^3+8", "--prime", "2"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: a strict dominant s != 0 needs d | u")


@st.composite
def _valuation_vectors(draw):
    """Degree 2-6 or 2-200 at p <= 7, each coefficient p^v with v <= 1, 3
    or 50, or, inside, zero: only the valuations matter to the analysis,
    and small degrees and valuations make ties and TA certificates."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(2, draw(st.sampled_from((6, 200)))))
    v = st.integers(0, draw(st.sampled_from((1, 3, 50))))
    inside = draw(st.lists(st.one_of(st.none(), v), min_size=n - 1, max_size=n - 1))
    valuations = [draw(v), *inside, draw(v)]
    return AnalysisInput(Polynomial([0 if k is None else p**k for k in valuations]), p)


def test_every_certificate_is_implied_by_the_polygon_on_valuation_vectors():
    tags = Counter()

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @hypothesis.given(_valuation_vectors())
    def holds(inp):
        analysis = analyze(inp)
        cert, table = analysis.certificate, analysis.table
        tags[cert.theorem] += 1
        if not cert.applies:
            return
        for split in analysis.dumas_pairs:
            if split[0]:
                assert any(clause.accepts(split, False) for clause in cert.clauses), split
        params = cert.params
        n, s, d = params.n, params.s, params.d
        # u = n(n-s)(m_s - m_0), cross-multiplied by the slopes' widths
        (r_s, b_s), (r_0, b_0) = table.slope_at(s), table.slope_at(0)
        assert params.u * b_s * b_0 == n * (n - s) * (r_s * b_0 - r_0 * b_s)
        reduced = (params.c_s // d) * n - ((n - s) // d) * params.c_n
        if cert.base_theorem == "T1" and s != 0:
            assert reduced == 1
        if cert.base_theorem == "T2":
            assert reduced == params.u // d

    holds()
    assert set(tags) == set(criteria.THEOREM_TAGS), tags


def _one_edge_factor(rng, p, degree, rise):
    """A factor whose polygon is one edge, from (0, rise) to (degree, 0):
    a unit times p^rise, then coefficients zero or on or above the edge,
    then a unit."""
    units = (1, -1, p + 1, -(p + 1))
    coeffs = [rng.choice(units) * p**rise]
    for i in range(1, degree):
        on_edge = -(-rise * (degree - i) // degree)
        coeffs.append(rng.choice((0, rng.choice(units) * p ** (on_edge + rng.randint(0, 2)))))
    coeffs.append(rng.choice(units))
    return Polynomial(coeffs)


def test_built_products_past_the_oracle_keep_their_split_and_index():
    # f = g*h is built, so its split is known at degrees the oracle cannot
    # factor.  By Dumas' theorem f's polygon joins g's and h's, so the
    # split is among f's degree pairs and an applying certificate accepts
    # it; and e(f) = max(e(g), e(h)).
    from newton_gauge.oracle import MAX_ORACLE_DEGREE

    rng = random.Random(24)
    applying = restricted = 0
    for trial in range(300):
        p = (2, 3, 5)[trial % 3]
        n = rng.randint(MAX_ORACLE_DEGREE + 1, 60)
        a = rng.randint(1, n // 2)
        g = _one_edge_factor(rng, p, a, rng.randint(0, 2 * a))
        h = _one_edge_factor(rng, p, n - a, rng.randint(0, 2 * (n - a)))
        f = g * h
        analysis = analyze(AnalysisInput(f, p))
        assert (a, n - a) in analysis.dumas_pairs, (str(f), p)
        restricted += len(analysis.dumas_pairs) < n // 2 + 1
        cert = analysis.certificate
        if cert.applies:
            applying += 1
            assert any(c.accepts((a, n - a), False) for c in cert.clauses), (str(f), p)
        (r_g, w_g), (r_h, w_h) = newton_index(g, p), newton_index(h, p)
        larger = (r_g, w_g) if r_g * w_h >= r_h * w_g else (r_h, w_h)
        assert newton_index(f, p) == larger, (str(f), p)
    # The products are not vacuous: most polygons refuse some split, and
    # most certificates apply.
    assert restricted > 200 and applying > 200, (restricted, applying)
