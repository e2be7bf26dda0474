import copy
import pickle
import random
from fractions import Fraction

import pytest

from newton_gauge.polynomial import (
    AnalysisInput,
    InvalidInputError,
    MAX_PARSED_COEFF_DIGITS,
    MAX_PARSED_EXPONENT,
    ParseError,
    Polynomial,
    content_and_primitive,
    format_polynomial,
    parse_polynomial,
)


def test_parse_dense_coefficients():
    f = parse_polynomial("x^6+2*x^3+8")
    assert f.coeffs == (8, 0, 0, 2, 0, 0, 1)
    assert f.degree == 6
    assert f.leading_coefficient == 1
    assert f.constant_term == 8


def test_parse_juxtaposition():
    assert parse_polynomial("2x^3") == parse_polynomial("2*x^3")
    assert parse_polynomial("(x-1)(x+1)").coeffs == (-1, 0, 1)
    assert parse_polynomial("3(x+1)") == parse_polynomial("3*x+3")
    assert parse_polynomial("x(x)(x)") == parse_polynomial("x^3")


def test_parse_whitespace_signs_and_nesting():
    assert parse_polynomial(" x^2 + 2 ") == Polynomial((2, 0, 1))
    assert parse_polynomial("-x^2-2") == Polynomial((-2, 0, -1))
    assert parse_polynomial("--x") == Polynomial((0, 1))
    assert parse_polynomial("x - - 2") == Polynomial((2, 1))
    assert parse_polynomial("((x+1))^2") == Polynomial((1, 2, 1))
    assert parse_polynomial("(x+1)^3") == Polynomial((1, 3, 3, 1))


def test_parse_zero_and_cancellation():
    assert parse_polynomial("0").is_zero
    assert parse_polynomial("x^2-x^2").is_zero
    assert parse_polynomial("x^2-x^2").degree == -1


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError, match="position 2"):
        parse_polynomial("x^-2")
    with pytest.raises(ParseError, match="unknown variable 'y'"):
        parse_polynomial("y^2+1")
    with pytest.raises(ParseError, match="unexpected"):
        parse_polynomial("2 3")
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_polynomial("(x+1")
    with pytest.raises(ParseError, match="expected an integer exponent"):
        parse_polynomial("x^")
    with pytest.raises(ParseError, match="unexpected end of input"):
        parse_polynomial("x+")
    with pytest.raises(ParseError, match="unexpected character '%'"):
        parse_polynomial("x%2")
    with pytest.raises(ParseError, match="exceeds the limit"):
        parse_polynomial(f"x^{MAX_PARSED_EXPONENT + 1}")
    with pytest.raises(ParseError, match="unexpected end of input"):
        parse_polynomial("")


def test_parse_rejects_non_ascii_digits():
    # str.isdigit() accepts both; only 0-9 are digits in the grammar.
    with pytest.raises(ParseError, match="unexpected character '²' at position 1"):
        parse_polynomial("x²+1")
    with pytest.raises(ParseError, match="unexpected character '٣' at position 4"):
        parse_polynomial("x^2+٣")
    with pytest.raises(ParseError, match="unexpected character '３' at position 1"):
        parse_polynomial("1３")


def test_parse_rejects_products_and_powers_past_the_degree_limit():
    with pytest.raises(ParseError, match="degree 2000000 exceeds the limit 1000000 at position 8"):
        parse_polynomial("(x^1000)^2000+1")
    with pytest.raises(ParseError, match="degree 1000001 exceeds the limit 1000000 at position 9"):
        parse_polynomial("x^1000000*x")
    with pytest.raises(ParseError, match="degree 1000001 exceeds the limit"):
        parse_polynomial("x^1000000(x+1)")
    assert parse_polynomial("(x^1000)^1000+1").degree == MAX_PARSED_EXPONENT


def test_parse_rejects_coefficients_past_the_digit_limit():
    assert MAX_PARSED_COEFF_DIGITS < 4300
    with pytest.raises(ParseError, match=f"limit of {MAX_PARSED_COEFF_DIGITS} digits at position 7"):
        parse_polynomial("x^2+x+2^20000")
    with pytest.raises(ParseError, match="integer literal longer than .* at position 6"):
        parse_polynomial("x^2+x+" + "9" * 4301)
    with pytest.raises(ParseError, match="integer literal longer than"):
        parse_polynomial("1" + "0" * MAX_PARSED_COEFF_DIGITS)
    with pytest.raises(ParseError, match="digits at position 9"):
        parse_polynomial("(10^2000)(10^2000)")
    with pytest.raises(ParseError, match="digits at position 5"):
        parse_polynomial("(x+1)^20000")
    widest = parse_polynomial("9" * MAX_PARSED_COEFF_DIGITS + "x^2+1")
    assert len(str(widest.leading_coefficient)) == MAX_PARSED_COEFF_DIGITS
    assert len(str(parse_polynomial("2^13287").constant_term)) == MAX_PARSED_COEFF_DIGITS
    # The analyze-bigval benchmark's largest coefficient: 3*7^2000, 1,691 digits.
    f = parse_polynomial("3*7^2000*x^59+2")
    assert f.leading_coefficient == 3 * 7**2000


def test_parse_error_position_attribute():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x^2 @ 1")
    assert info.value.position == 4


def test_format_canonical_forms():
    assert format_polynomial(Polynomial((-1, 0, 1))) == "x^2-1"
    assert format_polynomial(Polynomial(())) == "0"
    assert format_polynomial(Polynomial((2, -1))) == "-x+2"
    assert format_polynomial(Polynomial((0, 0, 3))) == "3*x^2"
    assert format_polynomial(Polynomial((8, 0, 0, 2, 0, 0, 1))) == "x^6+2*x^3+8"
    assert format_polynomial(Polynomial((5,))) == "5"
    assert format_polynomial(Polynomial((0, -7))) == "-7*x"


def test_format_parse_round_trip_random():
    rng = random.Random(20240)
    for _ in range(10000):
        deg = rng.randint(0, 10)
        coeffs = [rng.randint(-(10**6), 10**6) for _ in range(deg + 1)]
        f = Polynomial(coeffs)
        assert parse_polynomial(format_polynomial(f)) == f


def test_arithmetic():
    f = parse_polynomial("x^2+1")
    g = parse_polynomial("x-1")
    assert f + g == parse_polynomial("x^2+x")
    assert f - g == parse_polynomial("x^2-x+2")
    assert f * g == parse_polynomial("x^3-x^2+x-1")
    assert g**3 == parse_polynomial("x^3-3*x^2+3*x-1")
    assert (Polynomial() * f).is_zero
    assert (f * Polynomial()).is_zero
    assert f(2) == 5
    assert g(1) == 0


def test_polynomial_rejects_non_int_coefficients():
    for coeffs in ([1.5, 2.0, 1], [1, 2.0], [True, 1], [1, False], [Fraction(1, 2)], ["1"]):
        with pytest.raises(TypeError, match="must be int"):
            Polynomial(coeffs)
    assert Polynomial([2, -1, 0]).coeffs == (2, -1)
    assert Polynomial(iter([0, 10**50])).coeffs == (0, 10**50)


def test_polynomial_indexing_and_hash():
    f = Polynomial((8, 0, 0, 2, 0, 0, 1))
    assert f[0] == 8
    assert f[3] == 2
    assert f[5] == 0
    assert f[99] == 0
    assert hash(f) == hash(Polynomial((8, 0, 0, 2, 0, 0, 1)))
    assert len({f, Polynomial((8, 0, 0, 2, 0, 0, 1))}) == 1


def test_polynomial_is_immutable():
    f = Polynomial((8, 0, 1))
    before = hash(f)
    with pytest.raises(AttributeError, match="coeffs"):
        f.coeffs = (1,)
    with pytest.raises(AttributeError, match="coeffs"):
        del f.coeffs
    assert f.coeffs == (8, 0, 1)
    assert hash(f) == before
    assert copy.copy(f) == f
    assert pickle.loads(pickle.dumps(f)) == f


def test_monomial_and_constant():
    assert Polynomial.monomial(3, 4).coeffs == (0, 0, 0, 0, 3)
    assert Polynomial.constant(-2).coeffs == (-2,)
    assert Polynomial.monomial(0, 5).is_zero
    with pytest.raises(ValueError):
        Polynomial.monomial(1, -1)


def test_content_and_primitive():
    c, prim = content_and_primitive(parse_polynomial("-4x+8"))
    assert c == 4
    assert prim == parse_polynomial("-x+2")
    c, prim = content_and_primitive(parse_polynomial("6x^2+10x+14"))
    assert c == 2
    assert prim == parse_polynomial("3x^2+5x+7")
    c, prim = content_and_primitive(parse_polynomial("x^2+1"))
    assert c == 1
    with pytest.raises(ValueError):
        content_and_primitive(Polynomial())


def test_analysis_input_validation():
    ok = AnalysisInput(parse_polynomial("x^2+2"), 2)
    assert ok.degree == 2
    with pytest.raises(InvalidInputError, match="4 is not prime") as info:
        AnalysisInput(parse_polynomial("x^2+2"), 4)
    assert (str(info.value), info.value.arguments) == ("4 is not prime", ("prime",))
    with pytest.raises(InvalidInputError, match="not a valid prime") as info:
        AnalysisInput(parse_polynomial("x^2+2"), 1)
    assert info.value.arguments == ("prime",)
    with pytest.raises(InvalidInputError, match="degree >= 2") as info:
        AnalysisInput(parse_polynomial("x+1"), 2)
    assert info.value.arguments == ("poly",)
    with pytest.raises(InvalidInputError, match="degree >= 2"):
        AnalysisInput(Polynomial(), 2)
    with pytest.raises(InvalidInputError, match="nonzero constant term") as info:
        AnalysisInput(parse_polynomial("x^2+x"), 2)
    assert str(info.value) == "polynomial must have a nonzero constant term"
    assert info.value.arguments == ("poly",)
