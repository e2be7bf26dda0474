"""The CLI contract on inputs generated from the parser's grammar.

Texts are drawn from the grammar in ``newton_gauge.polynomial`` (literals
up to and past the 4,000-digit cap, exponents past 10^6, nested
parentheses, unary-minus chains, juxtaposition, whitespace) and then
sometimes damaged with stray operators, letters, Unicode digits and
Unicode whitespace.  Primes are drawn among small primes, primes just
below 2^64, composites, values below 2 and values at and past 2^64.

Powers of parenthesised sums stay at exponents <= 12, so that no example
spends seconds expanding a dense power; a sum raised to a power near the
cap can still take seconds to parse (see ROADMAP, "Every input the parser
accepts finishes quickly").

Every property runs a fixed number of derandomized examples, in process.
"""

import contextlib
import io
import json

import hypothesis
import jsonschema
from hypothesis import strategies as st

from newton_gauge.cli import EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_OK, main
from newton_gauge.polynomial import (
    MAX_PARSED_COEFF_DIGITS,
    MAX_PARSED_EXPONENT,
    MAX_PARSED_NESTING,
    ParseError,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from newton_gauge.report import load_schema

_SCHEMA = load_schema()

_settings = hypothesis.settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)

_literals = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from(["0", "007", "1" + "0" * 30]),
    st.sampled_from([MAX_PARSED_COEFF_DIGITS - 1, MAX_PARSED_COEFF_DIGITS,
                     MAX_PARSED_COEFF_DIGITS + 1]).map(lambda n: "9" * n),
)
_x_exponents = st.one_of(
    st.integers(0, 40),
    st.sampled_from([MAX_PARSED_EXPONENT + 1, 10**7, 10**25]),
).map(str)
_group_exponents = st.integers(0, 12).map(str)
_spaces = st.sampled_from(["", "", "", " ", "  ", "\t", "　"])


def _atoms(expressions):
    groups = st.tuples(_spaces, expressions, _spaces).map(lambda t: "(" + "".join(t) + ")")
    power = st.one_of(st.none(), _group_exponents)
    return st.one_of(
        st.tuples(_literals, st.one_of(st.none(), st.integers(0, 12).map(str))),
        st.tuples(st.just("x"), st.one_of(st.none(), _x_exponents)),
        st.tuples(groups, power),
    ).map(lambda t: t[0] if t[1] is None else f"{t[0]}^{t[1]}")


def _factors(expressions):
    return st.tuples(st.integers(0, 3), _atoms(expressions)).map(lambda t: "-" * t[0] + t[1])


def _terms(expressions):
    # '*', juxtaposition or a space between factors; juxtaposed literals
    # are a syntax error, which the contract covers too.
    joins = st.sampled_from(["*", "", " ", " * "])
    rest = st.lists(st.tuples(joins, _factors(expressions)), max_size=2)
    return st.tuples(_factors(expressions), rest).map(
        lambda t: t[0] + "".join(j + f for j, f in t[1])
    )


def _expressions():
    def extend(inner):
        signs = st.sampled_from(["+", "-", " - ", " + "])
        rest = st.lists(st.tuples(signs, _terms(inner)), max_size=3)
        return st.tuples(_terms(inner), rest).map(
            lambda t: t[0] + "".join(s + term for s, term in t[1])
        )

    return st.recursive(_terms(_literals), extend, max_leaves=12)


def _nested(text, depth):
    return "(" * depth + text + ")" * depth


_grammar = _expressions()
_depths = st.sampled_from(
    [MAX_PARSED_NESTING - 1, MAX_PARSED_NESTING, MAX_PARSED_NESTING + 1, 3000]
)
_deep = st.one_of(
    st.tuples(_grammar, _depths).map(lambda t: _nested(*t)),
    st.tuples(st.integers(1, 5000), _grammar).map(lambda t: "x^2+" + "-" * t[0] + t[1]),
)
# Three grammar texts to one deeply nested text.
_whole = st.one_of(_grammar, _grammar, _grammar, _deep)
_noise = st.sampled_from(list("+-*^()") + ["x²", "٣", "y", "2.5", " ", "/", "**", ""])


@st.composite
def _texts(draw):
    text = draw(_whole)
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_noise) + text[at:]
    return text


_primes = st.one_of(
    st.sampled_from([2, 3, 5, 7]),
    st.sampled_from([2**61 - 1, 2**64 - 59, 4, 9, 1, 0, -2, -7, 2**64, 2**64 + 13, 10**30]),
    st.integers(-10, 200),
)


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _poly_args(text):
    # A text that starts with "-" or "--" follows its flag as a separate
    # token too: the CLI attaches it, since no text is one of its flags.
    return ["--poly", text]


@hypothesis.settings(_settings, max_examples=250)
@hypothesis.given(_texts(), _primes, st.booleans())
def test_analyze_exits_0_or_2_with_a_flag_named_on_bad_input(text, prime, as_json):
    argv = ["analyze", *_poly_args(text), "--prime", str(prime)]
    code, out, err = _run(*argv, *(["--json"] if as_json else []))
    assert code in (EXIT_OK, EXIT_BAD_INPUT), (code, err)
    assert "Traceback" not in err
    if code == EXIT_BAD_INPUT:
        assert out == "" and err.startswith("--"), err
    elif as_json:
        jsonschema.validate(json.loads(out), _SCHEMA)
    else:
        assert out.startswith("polynomial  ") and err == ""


@hypothesis.settings(_settings, max_examples=300)
@hypothesis.given(_texts())
def test_accepted_texts_survive_a_format_parse_round_trip(text):
    try:
        f = parse_polynomial(text)
    except ParseError:
        return
    assert parse_polynomial(format_polynomial(f)) == f


_small_polynomials = st.integers(2, 12).flatmap(
    lambda n: st.lists(st.integers(-20, 20), min_size=n + 1, max_size=n + 1)
).filter(lambda cs: cs[0] != 0 and cs[-1] != 0).map(Polynomial)


@hypothesis.settings(_settings, max_examples=40)
@hypothesis.given(_small_polynomials, st.sampled_from([2, 3, 5, 7]))
def test_verify_at_desk_scale_exits_0_or_3(f, prime):
    code, out, err = _run("verify", *_poly_args(format_polynomial(f)), "--prime", str(prime))
    assert code in (EXIT_OK, EXIT_BUDGET), (code, out, err)
