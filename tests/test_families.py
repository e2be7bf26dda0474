import math

import pytest

from newton_gauge.criteria import analyze, compute_parameters
from newton_gauge.families import (
    FAMILIES,
    example1_expected,
    example1_instances,
    example1_polynomial,
    example2_expected,
    example2_polynomial,
)
from newton_gauge.newton import slope_table
from newton_gauge.polynomial import AnalysisInput, parse_polynomial


def test_family_names():
    assert FAMILIES == ("example1", "example2")


def test_example1_polynomial_shape():
    f = example1_polynomial(5, 2, 1, 1, 1, 1)
    assert f == parse_polynomial("512x^5+512x^2+2x+1")
    assert example1_polynomial(6, 3, 2, 1, 2, 1)[0] == 2
    assert example1_polynomial(6, 3, 2, 1, 2, 1)[1] == 9  # 3^2 * 1
    with pytest.raises(ValueError, match="n >= 5"):
        example1_polynomial(4, 2, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="outside"):
        example1_polynomial(5, 2, 2, 1, 1, 1)
    with pytest.raises(ValueError, match="outside"):
        example1_polynomial(5, 3, 1, 0, 1, 1)


def test_example1_instances_count_and_order():
    polys = list(example1_instances(5, 3))
    assert len(polys) == 16
    assert polys[0] == example1_polynomial(5, 3, 1, 1, 1, 1)
    assert polys[-1] == example1_polynomial(5, 3, 2, 2, 2, 2)
    assert len(set(polys)) == 16
    assert len(list(example1_instances(5, 2))) == 1


def test_example1_matches_expected_parameters():
    for n in (5, 6, 7):
        expected = example1_expected(n)
        for p in (2, 3):
            for f in example1_instances(n, p):
                inp = AnalysisInput(f, p)
                table = slope_table(inp)
                s = expected["s"]
                assert table.index_of_max == (s,)
                params = compute_parameters(inp, s)
                assert params.c_s == expected["c_s"]
                assert params.c_n == expected["c_n"]
                assert params.d == expected["d"]
                assert params.u == expected["u"]
                assert params.modulus == expected["modulus"]
                assert table.slope_at(1) == expected["m_s"]
                assert table.slope_at(2) == expected["m_2"]
                assert table.slope_at(0) == expected["m_0"]
                cert = analyze(inp).certificate
                assert cert.base_theorem == expected["theorem"]
                assert cert.theorem != "TA"  # d = n-1 > 1


def test_example1_expected_values():
    e = example1_expected(5)
    assert e["m_0"] == (9, 5)
    assert (e["c_s"], e["c_n"], e["d"], e["u"]) == (8, 9, 4, 4)
    # slope_at returns lowest terms, so the closed forms must be in them too
    for expected in [*map(example1_expected, range(5, 40)), *map(example2_expected, range(2, 40))]:
        for key in ("m_s", "m_0", "m_2"):
            if key in expected:
                rise, width = expected[key]
                assert width > 0 and math.gcd(rise, width) == 1, (key, expected[key])


def test_example2_polynomial_shape():
    f = example2_polynomial(2, 2)
    assert f == parse_polynomial("x^6+2x^3+8")
    g = example2_polynomial(3, 2)
    assert g == parse_polynomial("x^12+4x^4+16")
    assert g.degree == 12
    with pytest.raises(ValueError, match="d >= 2"):
        example2_polynomial(1, 2)


def test_example2_matches_expected_parameters():
    for d in (2, 3, 4):
        expected = example2_expected(d)
        for p in (2, 3):
            inp = AnalysisInput(example2_polynomial(d, p), p)
            table = slope_table(inp)
            s = expected["s"]
            assert table.index_of_max == (s,) == (d + 1,)
            params = compute_parameters(inp, s)
            assert params.c_s == expected["c_s"]
            assert params.c_n == expected["c_n"]
            assert params.d == expected["d"]
            assert params.u == expected["u"]
            assert params.modulus == expected["modulus"]
            assert table.slope_at(s) == expected["m_s"]
            assert table.slope_at(0) == expected["m_0"]
            cert = analyze(inp).certificate
            assert cert.theorem == expected["theorem"]
            assert (cert.theorem == "TB") == (d == 2)
