"""Dense integer polynomials in one variable: parsing, formatting, arithmetic.

A polynomial is stored as a tuple of arbitrary-precision coefficients
indexed by exponent, ``a_0 + a_1*x + ... + a_n*x^n``; the leading
coefficient is nonzero, and the zero polynomial is the empty tuple
(degree -1).  Values are immutable and all operations are pure.

Text grammar (EBNF)::

    expression := term (('+' | '-') term)*
    term       := factor (('*' factor) | factor)*
    factor     := '-' factor | atom ('^' nat)?
    atom       := integer | 'x' | '(' expression ')'
    integer    := ('0' | '1' | ... | '9')+

The second alternative inside ``term`` is juxtaposition: a '*' may be
omitted before ``x`` or ``(``, so ``2x^3`` and ``(x-1)(x+1)`` parse.
Juxtaposition of two integer literals ("2 3") is a syntax error, and
so is any non-ASCII digit ("x²", "٣").  The canonical formatter emits
descending powers with no spaces, writes ``*`` only between an integer
coefficient and ``x`` ("2*x^3"), and omits unit coefficients and the
exponent 1, so ``parse(format(f)) == f``.

The parser collects terms in a sparse {exponent: coefficient} map and
builds the dense polynomial once, at the end; a product with a monomial
and a power of a monomial cost only exponent arithmetic, so parse time
is linear in the number of terms.  Before expanding a product or power,
it raises :class:`ParseError` at its operator when the result would
pass degree ``MAX_PARSED_EXPONENT`` or could hold a coefficient of more
than ``MAX_PARSED_COEFF_DIGITS`` digits; the zero map has degree -1.
It raises it too at a '(' nested ``MAX_PARSED_NESTING`` + 1 deep.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator

from .valuation import MAX_PRIME, is_prime

__all__ = [
    "Polynomial",
    "AnalysisInput",
    "ParseError",
    "InvalidInputError",
    "OracleBudgetError",
    "InternalError",
    "parse_polynomial",
    "format_polynomial",
    "content_and_primitive",
]

# Dense storage makes x^k cost O(k) memory; cap parsed exponents and
# degrees so a CLI typo cannot allocate gigabytes.
MAX_PARSED_EXPONENT = 10**6
# Integer literals, products and powers whose coefficients could pass
# this many digits are rejected.  A sum of k terms adds at most log10(k)
# digits, so every parsed coefficient stays below Python's 4,300-digit
# limit on int-to-str conversion and can be printed.
MAX_PARSED_COEFF_DIGITS = 4000
_COEFF_LIMIT = 10**MAX_PARSED_COEFF_DIGITS
# Parentheses nest at most this deep, so that the recursive-descent parser
# stays well inside Python's recursion limit.
MAX_PARSED_NESTING = 100


class ParseError(ValueError):
    """Syntax error in polynomial text, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class InvalidInputError(ValueError):
    """An analysis input violates the analyzer's preconditions.

    ``arguments`` names the inputs at fault (``"prime"``, ``"min_degree"``,
    ...) where the raiser knows them; the CLI prints them as the flags of
    the same names in front of the message.
    """

    def __init__(self, message: str, *arguments: str):
        super().__init__(message)
        self.arguments = arguments


class OracleBudgetError(RuntimeError):
    """The oracle ran out of budget or the input exceeds desk-scale limits.

    Raised by ``oracle`` and re-exported there; it lives here, beside the
    other errors the CLI maps to exit codes, so that the CLI can catch it
    without importing the oracle.
    """


class InternalError(RuntimeError):
    """A broken internal invariant: a defect in this program, not bad input."""


# Value-class __init__s bind their fields with this: a module global is
# found faster than the attribute object.__setattr__.
_bind = object.__setattr__


def _no_fields(_) -> tuple:
    return ()


class _Value:
    """Base of the package's value classes.

    A subclass names its fields in ``__slots__``, in the order of its
    ``__init__``'s positional parameters, and binds them there with
    ``_bind``; after that, fields can be neither assigned nor deleted.
    Two values are equal when they have the same type and equal fields,
    the hash is over the fields, and the ``repr`` is
    ``Name(field=value, ...)``.  The fields are the subclass's own
    ``__slots__``, so a value class is not subclassed further; a class
    may name a prefix of them in ``_fields``, and the other slots then
    hold what ``__init__`` derives from the fields once.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        # An attrgetter is not a descriptor, so self._key is the getter itself.
        cls._key = operator.attrgetter(*fields) if fields else staticmethod(_no_fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Unpickling and copy.copy rebuild through __init__, whose
        # positional order is the field order.
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Polynomial:
    """Immutable dense polynomial over the integers.

    Every coefficient must be of type exactly ``int``: floats, Fractions
    and bools raise TypeError, so no inexact value gets in.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(
                    f"polynomial coefficients must be int, got {type(c).__name__} {c!r}"
                )
        while cs and cs[-1] == 0:
            cs.pop()
        _bind(self, "coeffs", tuple(cs))

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, coeff: int, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        return cls((0,) * exponent + (coeff,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __getitem__(self, exponent: int) -> int:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    __setattr__ = _Value.__setattr__
    __delattr__ = _Value.__delattr__

    def __reduce__(self):
        return Polynomial, (self.coeffs,)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Exact convolution product."""
        if self.is_zero or other.is_zero:
            return Polynomial()
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        # Zeros are skipped on both sides: sparse factors cost nonzeros x nonzeros.
        terms = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in terms:
                out[i + j] += ai * bj
        return Polynomial(out)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __call__(self, x):
        """The value at the integer x, by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def content_and_primitive(f: Polynomial) -> tuple[int, Polynomial]:
    """Split f into (positive content, primitive part) with f == content * primitive."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no content")
    content = 0
    for c in f.coeffs:
        content = math.gcd(content, c)
    return content, Polynomial(c // content for c in f.coeffs)


# ---------------------------------------------------------------------------
# Parsing

_TOK_INT = "int"
_TOK_X = "x"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text: str) -> list[tuple[str, int | str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_PARSED_COEFF_DIGITS:
                raise ParseError(
                    f"integer literal longer than {MAX_PARSED_COEFF_DIGITS} digits", i
                )
            tokens.append((_TOK_INT, int(text[i:j]), i))
            i = j
        elif ch == "x":
            tokens.append((_TOK_X, "x", i))
            i += 1
        elif ch in "+-*^()":
            tokens.append((_TOK_OP, ch, i))
            i += 1
        elif ch.isalpha():
            raise ParseError(f"unknown variable {ch!r} (only 'x' is allowed)", i)
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append((_TOK_END, "", n))
    return tokens


def _norm1(terms: dict[int, int]) -> int:
    """Sum of the coefficients' magnitudes; it bounds every coefficient."""
    return sum(map(abs, terms.values()))


def _power_reaches_limit(norm: int, k: int) -> bool:
    """Whether norm**k >= _COEFF_LIMIT, from bit lengths where they decide."""
    bits = _COEFF_LIMIT.bit_length()
    if k * norm.bit_length() < bits:
        return False
    if k * (norm.bit_length() - 1) >= bits:
        return True
    return norm**k >= _COEFF_LIMIT


def _check_expansion(degree: int, too_wide: bool, at: int) -> None:
    """Refuse a product or power before expanding it when its degree, or
    the bound on its coefficients, passes the parser's limits."""
    if degree > MAX_PARSED_EXPONENT:
        raise ParseError(f"degree {degree} exceeds the limit {MAX_PARSED_EXPONENT}", at)
    if too_wide:
        raise ParseError(
            f"coefficients could exceed the limit of {MAX_PARSED_COEFF_DIGITS} digits", at
        )


def _dense(terms: dict[int, int]) -> Polynomial:
    coeffs = [0] * (max(terms, default=-1) + 1)
    for e, c in terms.items():
        coeffs[e] = c
    return Polynomial(coeffs)


def _sparse(f: Polynomial) -> dict[int, int]:
    return {e: c for e, c in enumerate(f.coeffs) if c}


def _times(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two term maps; a monomial factor only shifts exponents."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) > 1:
        return _sparse(_dense(a) * _dense(b))
    return {e + shift: c * scale for shift, scale in b.items() for e, c in a.items()}


def _power(a: dict[int, int], k: int) -> dict[int, int]:
    if len(a) != 1:
        return _sparse(_dense(a) ** k)
    ((e, c),) = a.items()
    return {e * k: c**k}


class _Parser:
    """Recursive-descent parser for the grammar in the module docstring.

    Each method returns a new {exponent: coefficient} map with no zero
    coefficients, which its caller may change in place.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, int | str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, int | str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        terms = self.expression()
        kind, value, at = self.peek()
        if kind != _TOK_END:
            raise ParseError(f"unexpected {value!r}", at)
        return _dense(terms)

    def expression(self) -> dict[int, int]:
        terms = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "+-":
                self.advance()
                rhs = self.term()
                sign = 1 if value == "+" else -1
                for e, c in rhs.items():
                    terms[e] = terms.get(e, 0) + sign * c
            else:
                return {e: c for e, c in terms.items() if c}

    def term(self) -> dict[int, int]:
        terms = self.factor()
        while True:
            kind, value, at = self.peek()
            if kind == _TOK_OP and value == "*":
                self.advance()
            elif not (kind == _TOK_X or (kind == _TOK_OP and value == "(")):
                return terms
            # Otherwise juxtaposition: implicit multiplication before 'x' or '('.
            rhs = self.factor()
            too_wide = _norm1(terms) * _norm1(rhs) >= _COEFF_LIMIT
            degree = max(terms, default=-1) + max(rhs, default=-1)
            _check_expansion(degree, too_wide, at)
            terms = _times(terms, rhs)

    def factor(self) -> dict[int, int]:
        # A chain of unary minuses is read in a loop: it sets only the sign.
        negate = False
        while self.peek()[1] == "-":
            self.advance()
            negate = not negate
        terms = self.atom()
        kind, value, at = self.peek()
        if kind == _TOK_OP and value == "^":
            self.advance()
            k = self.exponent()
            degree = max(terms, default=-1) * k
            _check_expansion(degree, _power_reaches_limit(_norm1(terms), k), at)
            terms = _power(terms, k)
        return {e: -c for e, c in terms.items()} if negate else terms

    def atom(self) -> dict[int, int]:
        kind, value, at = self.advance()
        if kind == _TOK_INT:
            return {0: value} if value else {}
        if kind == _TOK_X:
            return {1: 1}
        if kind == _TOK_OP and value == "(":
            self.depth += 1
            if self.depth > MAX_PARSED_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_PARSED_NESTING}", at)
            terms = self.expression()
            self.depth -= 1
            kind2, value2, at2 = self.advance()
            if not (kind2 == _TOK_OP and value2 == ")"):
                raise ParseError("expected ')'", at2)
            return terms
        if kind == _TOK_END:
            raise ParseError("unexpected end of input", at)
        raise ParseError(f"unexpected {value!r}", at)

    def exponent(self) -> int:
        kind, value, at = self.advance()
        if kind == _TOK_OP and value == "-":
            raise ParseError("exponent must be a non-negative integer", at)
        if kind != _TOK_INT:
            raise ParseError("expected an integer exponent", at)
        if value > MAX_PARSED_EXPONENT:
            raise ParseError(f"exponent {value} exceeds the limit {MAX_PARSED_EXPONENT}", at)
        return value


def parse_polynomial(text: str) -> Polynomial:
    """Parse an integer-polynomial expression in x into its expanded dense form."""
    return _Parser(text).parse()


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form: descending powers, no zero terms, no spaces."""
    if f.is_zero:
        return "0"
    parts = []
    for e in range(f.degree, -1, -1):
        c = f.coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            xpart = "x" if e == 1 else f"x^{e}"
            body = xpart if mag == 1 else f"{mag}*{xpart}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"-{body}" if c < 0 else f"+{body}")
    return "".join(parts)


def _require_prime(prime: int, argument: str = "prime") -> None:
    """Raise InvalidInputError naming `argument` unless prime is a prime below
    MAX_PRIME = 2^64, well inside the range where ``valuation.is_prime`` is exact."""
    if not 2 <= prime < MAX_PRIME:
        need = "p >= 2" if prime < 2 else "p < 2^64"
        raise InvalidInputError(f"{prime} is not a valid prime candidate (need {need})", argument)
    if not is_prime(prime):
        raise InvalidInputError(f"{prime} is not prime", argument)


class AnalysisInput(_Value):
    """A polynomial together with the prime defining the valuation.

    Validates the analyzer's preconditions on construction: nonzero
    constant and leading terms, degree at least 2, and a prime modulus.
    """

    __slots__ = ("poly", "prime")

    def __init__(self, poly: Polynomial, prime: int):
        _require_prime(prime)
        if poly.degree < 2:
            raise InvalidInputError(
                f"polynomial must have degree >= 2, got degree {poly.degree}", "poly"
            )
        if poly.constant_term == 0:
            raise InvalidInputError("polynomial must have a nonzero constant term", "poly")
        _bind(self, "poly", poly)
        _bind(self, "prime", prime)

    @property
    def degree(self) -> int:
        return self.poly.degree
