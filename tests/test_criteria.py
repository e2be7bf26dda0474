import random
from fractions import Fraction

import pytest

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
    find_dominant_index,
)
from newton_gauge.newton import slope_table
from newton_gauge.polynomial import AnalysisInput, parse_polynomial


def _inp(text, p):
    return AnalysisInput(parse_polynomial(text), p)


def test_find_dominant_index():
    assert find_dominant_index(slope_table(_inp("x^6+2x^3+8", 2))) == 3
    assert find_dominant_index(slope_table(_inp("512x^5+512x^2+2x+1", 2))) == 1
    assert find_dominant_index(slope_table(_inp("x^2+3x+9", 3))) is None
    assert find_dominant_index(slope_table(_inp("x^2+2", 2))) == 0


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
    with pytest.raises(ValueError, match="divide"):
        CriteriaParameters(n=6, s=1, c_s=1, c_n=1, d=4, u=4, modulus=1)
    with pytest.raises(ValueError, match="s = 0"):
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
        s = find_dominant_index(table)
        if s is None:
            continue
        checked += 1
        params = compute_parameters(inp, s)
        m_s = table.slope_at(s)
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
    assert fdm.satisfied_by_degrees(3, 1)
    assert fdm.satisfied_by_degrees(0, 5)
    assert not fdm.satisfied_by_degrees(1, 2)

    split = AlphaSplit(4, 2)
    assert split.satisfied_by_degrees(2, 2)  # a1=1: 2-2=0
    assert not split.satisfied_by_degrees(1, 2)
    assert split.satisfied_by_degrees(1, 2) == split.satisfied_by_degrees(2, 1)

    assert AlphaSplit(3, 3).satisfied_by_degrees(1, 5)  # a1=1: 2*1-5=-3


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
                    assert clause.satisfied_by_degrees(d1, d2) == by_loop, (
                        d1, d2, modulus, total,
                    )


def test_alpha_split_huge_total_is_immediate():
    # the loop would run 10^12 times; the congruence answers at once
    assert AlphaSplit(1, 10**12).satisfied_by_degrees(3, 4)
    assert not AlphaSplit(7, 10**12).satisfied_by_degrees(3, 4)  # 7 | d1+d2, 7 !| total*d1
    assert AlphaSplit(7, 10**12 + 1).satisfied_by_degrees(2, 3)  # least a1 = 5


def test_certificate_validation():
    with pytest.raises(ValueError, match="unknown theorem tag"):
        Certificate("T9", None, ())
    with pytest.raises(ValueError, match="params must be present"):
        Certificate("none", CriteriaParameters(2, 0, -1, -1, 1, 0, 2), ())
    with pytest.raises(ValueError, match="params must be present"):
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
