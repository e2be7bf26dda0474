import copy
import math
import pickle
import random
from fractions import Fraction

import hypothesis
import pytest
from hypothesis import strategies as st

from newton_gauge import polynomial
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


def test_deep_nesting_is_a_parse_error_and_minus_chains_are_read_in_a_loop():
    depth = polynomial.MAX_PARSED_NESTING
    assert parse_polynomial("(" * depth + "x+1" + ")" * depth) == Polynomial((1, 1))
    for deeper in (depth + 1, 5000):
        with pytest.raises(ParseError, match=f"nested deeper than {depth}") as info:
            parse_polynomial("(" * deeper + "x+1" + ")" * deeper)
        assert info.value.position == depth
    # the cap is on depth, not on the number of parentheses
    assert parse_polynomial("+".join(["(x)"] * (depth + 50))) == Polynomial((0, depth + 50))
    # a chain of unary minuses sets only the sign, however long it is
    assert parse_polynomial("x^2+" + "-" * 5000 + "3") == Polynomial((3, 0, 1))
    assert parse_polynomial("-" * 5001 + "x^2") == Polynomial((0, 0, -1))
    assert parse_polynomial("(-" * depth + "2" + ")" * depth) == Polynomial((2,))


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


# ---------------------------------------------------------------------------
# the sparse parser against the dense one it replaced


class _ReferenceParser(polynomial._Parser):
    """The dense parser that the sparse one replaced: every subexpression
    is a dense Polynomial, built with Polynomial's own +, -, * and **."""

    def parse(self):
        poly = self.expression()
        kind, value, at = self.peek()
        if kind != polynomial._TOK_END:
            raise ParseError(f"unexpected {value!r}", at)
        return poly

    def expression(self):
        poly = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == polynomial._TOK_OP and value in "+-":
                self.advance()
                rhs = self.term()
                poly = poly + rhs if value == "+" else poly - rhs
            else:
                return poly

    def term(self):
        poly = self.factor()
        while True:
            kind, value, at = self.peek()
            if kind == polynomial._TOK_OP and value == "*":
                self.advance()
            elif not (kind == polynomial._TOK_X or (kind == polynomial._TOK_OP and value == "(")):
                return poly
            rhs = self.factor()
            too_wide = _dense_norm1(poly) * _dense_norm1(rhs) >= polynomial._COEFF_LIMIT
            polynomial._check_expansion(poly.degree + rhs.degree, too_wide, at)
            poly = poly * rhs

    def factor(self):
        kind, value, _ = self.peek()
        if kind == polynomial._TOK_OP and value == "-":
            self.advance()
            return -self.factor()
        poly = self.atom()
        kind2, value2, at = self.peek()
        if kind2 == polynomial._TOK_OP and value2 == "^":
            self.advance()
            k = self.exponent()
            too_wide = polynomial._power_reaches_limit(_dense_norm1(poly), k)
            polynomial._check_expansion(poly.degree * k, too_wide, at)
            return poly**k
        return poly

    def atom(self):
        kind, value, at = self.advance()
        if kind == polynomial._TOK_INT:
            return Polynomial.constant(value)
        if kind == polynomial._TOK_X:
            return Polynomial.monomial(1, 1)
        if kind == polynomial._TOK_OP and value == "(":
            poly = self.expression()
            kind2, value2, at2 = self.advance()
            if not (kind2 == polynomial._TOK_OP and value2 == ")"):
                raise ParseError("expected ')'", at2)
            return poly
        if kind == polynomial._TOK_END:
            raise ParseError("unexpected end of input", at)
        raise ParseError(f"unexpected {value!r}", at)


def _dense_norm1(f):
    return sum(abs(c) for c in f.coeffs)


def _reference_parse(text):
    return _ReferenceParser(text).parse()


def _parse_outcome(parse, text):
    """The parsed polynomial, or the ParseError's message and position."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.position


def _assert_parsers_agree(text):
    outcome = _parse_outcome(parse_polynomial, text)
    assert outcome == _parse_outcome(_reference_parse, text), text
    if isinstance(outcome, Polynomial):
        assert parse_polynomial(format_polynomial(outcome)) == outcome, text
    return outcome


def _grammar_text(pick):
    """Polynomial text from the parser's grammar; pick(lo, hi) draws an int.

    Covers nested parentheses, unary minus chains, juxtaposition, '^',
    whitespace, literals near the 4,000-digit cap, exponents near 10^6
    and, in one text of five, a stray operator or parenthesis.
    """

    def literal():
        if pick(0, 9) == 5:
            return str(pick(1, 9)) + "7" * (MAX_PARSED_COEFF_DIGITS + pick(-6, 1))
        return str(pick(0, 40))

    def exponent():
        if pick(0, 99) == 50:
            return str(MAX_PARSED_EXPONENT + pick(-2, 1))
        return str(pick(0, 5))

    def atom(depth):
        kind = pick(0, 2 if depth else 1)
        if kind == 0:
            return literal()
        return "x" if kind == 1 else "(" + expression(depth - 1) + ")"

    def factor(depth):
        text = "-" * pick(0, 3) + atom(depth)
        return text + "^" + exponent() if pick(0, 2) == 0 else text

    def term(depth):
        text = factor(depth)
        for _ in range(pick(0, 2)):
            operand = factor(depth)
            operator = ("*", "", " ")[pick(0, 2)]
            # juxtaposed digits would merge into one literal or exponent
            text += (operator or " " if operand[0].isdigit() else operator) + operand
        return text

    def expression(depth):
        text = term(depth)
        for _ in range(pick(0, 3)):
            text += ("+", "-", " - ")[pick(0, 2)] + term(depth)
        return text

    text = expression(2)
    if pick(0, 4) == 0:
        at = pick(0, len(text))
        text = text[:at] + "+-*^()"[pick(0, 5)] + text[at:]
    return text


def test_sparse_parser_matches_the_dense_parser_on_a_seeded_corpus():
    rng = random.Random(5)
    outcomes = [_assert_parsers_agree(_grammar_text(rng.randint)) for _ in range(200)]
    parsed = [o for o in outcomes if isinstance(o, Polynomial)]
    messages = " ".join(o[0] for o in outcomes if not isinstance(o, Polynomial))
    # both sides of the corpus are exercised: accepted texts, huge degrees
    # and every kind of error
    assert len(parsed) > 50 and any(f.degree >= MAX_PARSED_EXPONENT - 2 for f in parsed)
    for fragment in ("unexpected", "exceeds the limit", "digits", "expected"):
        assert fragment in messages


@st.composite
def _grammar_texts(draw):
    return _grammar_text(lambda lo, hi: draw(st.integers(lo, hi)))


@hypothesis.settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(_grammar_texts())
def test_sparse_parser_matches_the_dense_parser_on_grammar_texts(text):
    _assert_parsers_agree(text)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0^0", Polynomial((1,))),
        ("(x-x)^0", Polynomial((1,))),
        ("0*x^1000000", Polynomial()),
        ("(x-x)^1000001", ("exponent 1000001 exceeds the limit 1000000 at position 6", 6)),
        ("(x-x)^1000000", Polynomial()),
        ("(x^1000)^2000", ("degree 2000000 exceeds the limit 1000000 at position 8", 8)),
        ("2^20000", ("coefficients could exceed the limit of 4000 digits at position 1", 1)),
        ("x-x", Polynomial()),
        ("--x", Polynomial((0, 1))),
        # terms that cancel leave no degree behind
        ("(x^1001-x^1001)^1000", Polynomial()),
        ("(x^1001-x^1001+1)^1000", Polynomial((1,))),
    ],
)
def test_parser_edge_cases(text, expected):
    assert _assert_parsers_agree(text) == expected


def test_parse_makes_no_dense_product_for_monomial_terms(monkeypatch):
    rng = random.Random(2000)
    dense = [rng.randint(1, 99) for _ in range(2001)]
    bigval = {40: 2 * 3**1500, 31: -(3**1999), 9: 7 * 3**2, 0: -5}
    texts = [
        "+".join(f"{dense[k]}*x^{k}" for k in range(2000, -1, -1)),
        "x^1000000+2",
        "2*3^1500*x^40-3^1999*x^31+7*3^2*x^9-5",
    ]
    expected = [
        Polynomial(dense),
        Polynomial((2,) + (0,) * 999_999 + (1,)),
        Polynomial(bigval.get(e, 0) for e in range(41)),
    ]
    calls = []
    real_mul, real_pow = Polynomial.__mul__, Polynomial.__pow__

    def counting_mul(self, other):
        calls.append("*")
        return real_mul(self, other)

    def counting_pow(self, k):
        calls.append("^")
        return real_pow(self, k)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    monkeypatch.setattr(Polynomial, "__pow__", counting_pow)
    assert [parse_polynomial(text) for text in texts] == expected
    assert calls == []
    # a power of a sum is still expanded, through the dense product
    f = parse_polynomial("(x+1)^12")
    assert f.coeffs == tuple(math.comb(12, i) for i in range(13))
    assert calls


class _CountedInt(int):
    """An int that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _CountedInt.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def _counted(coeffs):
    # Polynomial() admits exact ints only, so the counted operand is
    # bound directly; the product it returns is made of plain ints.
    f = object.__new__(Polynomial)
    polynomial._bind(f, "coeffs", tuple(_CountedInt(c) for c in coeffs))
    return f


def _nonzeros(f):
    return sum(1 for c in f.coeffs if c)


def _convolution(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return Polynomial(out)


@pytest.mark.parametrize(
    "left, right",
    [
        ("x^100+1", "x^100+1"),
        ("x^100+1", "x^7-3x^50+2"),
        ("5", "x^40-x^20+x^3"),
        ("x^3-x+7", "x^2+x+1"),
        ("x^250+1", "(x^250+1)^3"),
    ],
)
def test_product_multiplies_only_nonzero_coefficient_pairs(left, right):
    f, g = parse_polynomial(left), parse_polynomial(right)
    expected = _convolution(f.coeffs, g.coeffs)
    for a, b in ((f, g), (g, f)):
        _CountedInt.products = 0
        product = _counted(a.coeffs) * _counted(b.coeffs)
        assert product == expected
        assert all(type(c) is int for c in product.coeffs)
        assert _CountedInt.products == _nonzeros(a) * _nonzeros(b)
