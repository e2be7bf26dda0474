"""Brute-force factorization oracle (Kronecker interpolation) and verification.

The oracle factors integer polynomials into irreducibles over the
rationals by pure enumeration.  After content and powers of x, one loop
over the factor degree k tests rational roots at k = 1 and, from k = 2
on, evaluates at the first k + 1 of the fixed points 0, 1, -1, 2, -2,
3, -3 (none a root by then), enumerates divisor tuples of the values,
interpolates each tuple to a candidate factor and trial-divides.  Each
search returns its factor with the cofactor of the one division that
accepted it; the loop goes on with that cofactor until 2k exceeds its
degree, so a linear remainder is never searched.  Slow but transparently
correct, and independent of the polygon code it checks.  The divisors
come from trial division by the primes below 1000, deterministic
Miller-Rabin (:func:`valuation.is_prime`) on what is left and
Pollard-Brent rho (Brent, BIT 1980) to split it when composite.

From degree 6 on, a modular degree analysis prunes that search first
(Knuth, TAOCP Vol. 2, 4.6.2; Musser, JACM 1975).  For small primes q
that do not divide the leading coefficient and keep f squarefree mod q
(q does not divide the integer resultant R = Res(f, f'), computed once
by the subresultant PRS; five primes below degree 8, up to fifteen from
degree 8 on), distinct-degree factorization over F_q gives the degrees
of f's factors mod q; an integer factor's degree must be a subset sum
of them for every such q.  Other degrees hold no factor and are never
searched, so the witness is unchanged; {0, n} proves f irreducible.
Step d counts f's factors of degree d mod q by evaluating f at one root
of each monic irreducible g of degree d, that is at one element of each
Frobenius orbit of F_{q^d} outside F_q (Lidl and Niederreiter, Finite
Fields, ch. 3): at d = 1 at every residue, and at d = 2 or 3 while
there are at most 78 such g.  One cached table per (q, d) packs x^i mod
g for every g into 32-bit slots; f's residues times its rows sum to f
at every root at once (no slot passes (n + 1)(q - 1)^2 < 2^16), and one
multiplication by an inverse of q mod 2^16 tests every slot for zero
without an unpack.
The other steps use the Frobenius map h -> h^q mod f, built only when
one of them runs: n packed ints, one per column x^(iq) mod f, with a
32-bit slot per coefficient, so each step is one sum of products and
one unpack; at the oracle's limits no slot passes n^2 (q - 1)^3 < 2^32.
For odd q the quadratic character of the discriminant mod q, read off
+-lc(f) R, gives the parity of the number of factors mod q
(Stickelberger 1897; Swan, Pacific J. Math. 1962), which settles the
last step, where one factor or two are left, without its Frobenius step
and gcd.  Below degree 6 the analysis is skipped, but the degree-2
search of a quartic or quintic first asks a few primes for the same root
count and parity, and returns no factor when they leave no degree set
mod q with a subset summing to 2.

Work is metered in units: one per rational-root candidate and per
divisor combination, and in the degree analysis one per product mod f
and per gcd over F_q: each prime's squarefree test costs one unit, as
a gcd, and a step the parity settles or an evaluation counts takes two,
as a product and a gcd; the quadratic screen costs nothing, and a search
it rules out is charged as if its walk had run out of candidates.  Only
divisor combinations whose interpolated leading coefficient divides
f's are looked at: the trailing points' combinations are indexed by
their exact share of that coefficient, each combination of the leading
points looks them up and probes its matches in one pass, and the rest
are charged at once; the split between the two sets of points charges
each outer combination a fixed overhead, so a small search builds one
index and walks no outer loop.  A match is built and trial-divided only
when its values at two probes past Cauchy's root bound, a near one and
a far one, divide f's values there.  A rational root r/q is evaluated
only when q - r divides f(1) and q + r divides f(-1), and is charged
either way.  None of these screens changes the witness or the units
spent.  Exceeding the cap (10^7, or NEWTON_GAUGE_BUDGET, which a sweep
reads once) or the desk-scale limits (degree <= 12, |coefficients| <=
10^9) raises :class:`OracleBudgetError`.

`verify_certificate` then checks an analysis certificate against a
witness: every bipartition of the irreducible factors must satisfy at
least one certificate clause.  Corpus and family sweeps, which wire the
whole pipeline over many polynomials, live in :mod:`newton_gauge.sweeps`,
so a cold ``verify`` compiles only the factoring and the verification;
``oracle.sweep`` still resolves, to ``sweeps.sweep``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import os
import struct
from collections.abc import Iterator, Sequence

from .polynomial import (
    InternalError,
    InvalidInputError,
    OracleBudgetError,
    Polynomial,
    _bind,
    _Value,
    content_and_primitive,
)
from .valuation import is_prime, p_adic_valuation

# `Certificate` in verify_certificate's annotation is never evaluated: the
# oracle, which checks certificates, does not import `criteria`, which makes them.

__all__ = [
    "OracleBudgetError",
    "WitnessIntegrityError",
    "FactorizationWitness",
    "BipartitionCheck",
    "VerificationReport",
    "DEFAULT_BUDGET",
    "MAX_ORACLE_DEGREE",
    "MAX_ORACLE_COEFF",
    "BUDGET_ENV_VAR",
    "oracle_budget",
    "exact_divide",
    "kronecker_factor",
    "verify_certificate",
    "check_dumas_consistency",
]

DEFAULT_BUDGET = 10**7
MAX_ORACLE_DEGREE = 12
MAX_ORACLE_COEFF = 10**9
BUDGET_ENV_VAR = "NEWTON_GAUGE_BUDGET"


class WitnessIntegrityError(InternalError):
    """A witness does not multiply back to the polynomial it claims to factor."""


def oracle_budget() -> int:
    """The cap on units spent: NEWTON_GAUGE_BUDGET when set, else the default.

    Raises InvalidInputError when the variable is not a positive integer.
    """
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise InvalidInputError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return cap


class _Budget:
    __slots__ = ("cap", "spent")

    def __init__(self, cap: int):
        self.cap = cap
        self.spent = 0

    def spend(self, amount: int = 1) -> None:
        self.spent += amount
        if self.spent > self.cap:
            raise OracleBudgetError(
                f"oracle out of budget: {self.spent} units exceed the cap"
                f" of {self.cap} (raise {BUDGET_ENV_VAR} to allow more work)"
            )


# After trial division by the primes below _TRIAL_BOUND, a cofactor below
# _TRIAL_BOUND**2 is prime: a composite one would have a smaller factor.
_TRIAL_BOUND = 1000


def _primes_below(bound: int) -> tuple[int, ...]:
    """The primes below bound, by the sieve of Eratosthenes on a bytearray."""
    marks = bytearray([1]) * bound
    marks[:2] = bytes(2)
    for q in range(2, math.isqrt(bound) + 1):
        if marks[q]:
            marks[q * q :: q] = bytes(len(range(q * q, bound, q)))
    return tuple(itertools.compress(range(bound), marks))


_TRIAL_PRIMES = _primes_below(_TRIAL_BOUND)
# Rho steps whose differences are multiplied together between two gcds.
_RHO_BATCH = 128


def _rho_factor(n: int) -> int:
    """A nontrivial factor of the odd composite n (Brent, BIT 1980).

    Iterates y -> y^2 + c mod n with Brent's cycle detection and one gcd
    per _RHO_BATCH steps, backtracking step by step when a batch
    overshoots to n.  Tries c = 1, 2, ... in turn, so the result is
    deterministic.
    """
    for c in itertools.count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
        if g != n:
            return g


def _prime_factors(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1."""
    out: dict[int, int] = {}
    for q in _TRIAL_PRIMES:
        if q * q > n:
            break
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out[q] = e
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < _TRIAL_BOUND**2 or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_factor(m)
            pending += [d, m // d]
    return out


@functools.lru_cache(maxsize=65536)
def _divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of |n| in ascending order (empty for n = 0).

    Built from the prime factorization of |n|.  The oracle's limits keep
    every argument below 10^19: rational-root candidates divide an input
    coefficient (at most 10^9), and interpolation values are g(x) at
    |x| <= 3 for a factor g of the input f, so |g(x)| <= 3^12 |g|_1 <=
    6^12 |f|_2 by Mignotte's bound.  Miller-Rabin is exact far beyond
    that; a cofactor past its range raises RuntimeError.
    """
    if n == 0:
        return ()
    divs = [1]
    for q, e in sorted(_prime_factors(abs(n)).items()):
        divs = [d * q**i for i in range(e + 1) for d in divs]
    return tuple(sorted(divs))


class FactorizationWitness(_Value):
    """Complete factorization: sign * content * product(factors) = poly.

    Factors are primitive, irreducible over the rationals, have positive
    leading coefficients, and are sorted by (degree, coefficients) so
    the witness is deterministic.  Its product and bipartition degree
    pairs are derived once, when it is built.
    """

    __slots__ = ("sign", "content", "factors", "_product", "_degree_pairs")
    _fields = __slots__[:3]

    def __init__(self, sign: int, content: int, factors: tuple[Polynomial, ...]):
        _bind(self, "sign", sign)
        _bind(self, "content", content)
        _bind(self, "factors", factors)
        _bind(self, "_product", self.reconstruct())
        _bind(self, "_degree_pairs", tuple(_bipartition_degrees(factors)))

    def reconstruct(self) -> Polynomial:
        out = Polynomial.constant(self.sign * self.content)
        for g in self.factors:
            out = out * g
        return out

    @property
    def factor_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.factors)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Quotient f/g when it exists in Z[x], else None.

    Long division from the top; aborts as soon as a leading coefficient
    fails to divide, so rejected candidates are cheap.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return Polynomial()
    if f.degree < g.degree:
        return None
    rem = list(f.coeffs)
    glead = g.leading_coefficient
    gdeg = g.degree
    qdeg = f.degree - gdeg
    quotient = [0] * (qdeg + 1)
    for t in range(qdeg, -1, -1):
        c = rem[t + gdeg]
        if c == 0:
            continue
        if c % glead != 0:
            return None
        q = c // glead
        quotient[t] = q
        for j, gc in enumerate(g.coeffs):
            rem[t + j] -= q * gc
    if any(rem[: gdeg]):
        return None
    return Polynomial(quotient)


# A degree-k search interpolates at the first k + 1; k <= MAX_ORACLE_DEGREE // 2.
_POINTS = (0, 1, -1, 2, -2, 3, -3)


@functools.lru_cache(maxsize=256)
def _lagrange_basis(points: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer-scaled Lagrange basis for the given interpolation points.

    Returns (B, D) where B[j] is the coefficient vector of D * L_j(x)
    and L_j is the usual Lagrange basis polynomial; every B[j] is
    integral, so a candidate with values w is integral iff D divides
    every coefficient of sum(w[j] * B[j]).
    """
    basis = []
    dens = []
    for j, xj in enumerate(points):
        num = [1]
        den = 1
        for i, xi in enumerate(points):
            if i == j:
                continue
            # num * (x - xi), lowest degree first
            num = [a - xi * b for a, b in zip([0, *num], [*num, 0])]
            den *= xj - xi
        basis.append(num)
        dens.append(den)
    common = math.lcm(*(abs(d) for d in dens))
    scaled = tuple(tuple(c * (common // den) for c in num) for num, den in zip(basis, dens))
    return scaled, common


def _candidate_values(value: int, positive_only: bool) -> tuple[int, ...]:
    divs = _divisors(value)
    return divs if positive_only else tuple(x for d in divs for x in (d, -d))


def _rational_root_factor(f: Polynomial, budget: _Budget) -> tuple[Polynomial, Polynomial] | None:
    """A primitive linear factor q*x - r of f and its cofactor, or None.

    Candidates r/q run over divisors of the constant and leading
    coefficients in a fixed order; each test costs one budget unit.
    A root r/q makes q*x - r a factor, so q - r divides f(1) and q + r
    divides f(-1): a candidate that fails either is skipped unevaluated,
    and the roots 1 and -1, where q - r or q + r is 0, are roots exactly
    when f(1) or f(-1) is 0.  The root test evaluates sum a_i r^i
    q^(n-i) in integers, and the root found is divided out once:
    InternalError if that fails.
    """
    a0 = f.constant_term
    an = f.leading_coefficient
    n = f.degree
    at_one = sum(f.coeffs)
    at_minus_one = sum(f.coeffs[::2]) - sum(f.coeffs[1::2])
    for q in _divisors(an):
        for mag in _divisors(a0):
            if math.gcd(mag, q) != 1:
                continue
            for r in (mag, -mag):
                budget.spend()
                below, above = q - r, q + r
                # 0 divides only 0: at the roots 1 and -1 the sieve is the root test
                if (at_one % below if below else at_one) or (
                    at_minus_one % above if above else at_minus_one
                ):
                    continue
                acc = 0
                rpow = 1
                qpow = q**n
                for c in f.coeffs:
                    acc += c * rpow * qpow
                    rpow *= r
                    qpow //= q
                if acc == 0:
                    h = Polynomial((-r, q))
                    cofactor = exact_divide(f, h)
                    if cofactor is None:
                        raise InternalError(f"the oracle's factor {h} does not divide {f}")
                    return h, cofactor
    return None


def _candidate_factor(
    f: Polynomial, combo: tuple[int, ...], basis: tuple, common: int
) -> tuple[Polynomial, Polynomial] | None:
    """The candidate interpolating combo and its cofactor when it divides f, else None."""
    coeffs = []
    for c in range(len(combo)):
        acc = sum(w * b[c] for w, b in zip(combo, basis))
        if acc % common != 0:
            return None
        coeffs.append(acc // common)
    h = Polynomial(coeffs)
    # f is primitive, so exact_divide refuses an imprimitive h (Gauss's lemma)
    cofactor = exact_divide(f, h)
    return None if cofactor is None else (h, cofactor)


_MAX_INNER_INDEX = 65536  # entries, unless the last point alone has more
# What one outer prefix costs beyond the keys it reads, in index entries:
# its partial sum, class lookup, match call and budget charge take about 5
# entries' CPU time on CPython 3.11, and acceptance-box sweeps ran alike
# with any value from 8 to 16.
_PREFIX_OVERHEAD = 8


def _inner_start(sizes: list[int], leads: list[int], common: int, targets: int) -> int:
    """The first inner point: minimises outer prefixes times their cost
    plus inner entries.  A prefix costs _PREFIX_OVERHEAD plus the shorter
    of the targets and its class, so a small search takes one index and
    no outer loop; inner sums fall into lcm(common / |B[j][k]|) residue
    classes.  Any split meets the candidates in the same product order.

    Walks the splits from the last point alone towards the first, growing
    the inner product and its classes, and stops past the index bound.
    """
    bound = max(sizes[-1], _MAX_INNER_INDEX)
    inner = classes = 1
    costs = []
    for m in range(len(sizes) - 1, -1, -1):
        inner *= sizes[m]
        if inner > bound:
            break
        classes = math.lcm(classes, common // abs(leads[m]))
        per_prefix = _PREFIX_OVERHEAD + min(targets, -(-inner // classes))
        costs.append((math.prod(sizes[:m]) * per_prefix + inner, m))
    return min(costs)[1]


def _lead_matches(
    sums: dict[int, list[int]], partial: int, common: int, flead: int, scaled_leads: list[int]
) -> list[list[int]]:
    """The position lists of the sums s in one residue class with
    partial + s = common * L, L | flead, unmerged: tests each sum, or looks
    up each target common * L - partial, whichever list is shorter."""
    if len(sums) <= len(scaled_leads):
        return [js for s, js in sums.items() if (lead := (partial + s) // common) and flead % lead == 0]
    return [sums[t] for t in (c - partial for c in scaled_leads) if t in sums]


def _sumset(terms: list[tuple[int, ...]]) -> list[int]:
    """sum(c) for each c in itertools.product(*terms), in product order."""
    sums = [0]
    for t in terms:
        sums = [s + x for s in sums for x in t]
    return sums


def _factor_of_degree(f: Polynomial, k: int, budget: _Budget) -> tuple[Polynomial, Polynomial] | None:
    """A degree-k factor of the primitive f and its cofactor, or None after exhaustion.

    The candidates are the tuples of divisors of f's values at the k + 1
    points _POINTS[: k + 1], in itertools.product order, one budget unit
    each.  The caller has removed every rational root, so no value is 0;
    one that is raises InternalError naming f and k.  Only a
    candidate whose scaled leading coefficient sum(w[j] * B[j][k]) is
    common * L, for a divisor L of f's leading coefficient, can divide f.
    So the points are split (:func:`_inner_start`) into outer and inner
    ones, every inner combination is indexed by its exact partial sum,
    grouped by residue mod common, and each outer prefix with sum P finds
    the inner sums S with P + S = common * L (:func:`_lead_matches`).
    The rest are charged unseen: each prefix is charged once, for as
    many units as the per-candidate walk would have spent, so the
    witness, the units spent and the point at which the budget runs out
    are all unchanged.

    A match h is built and trial-divided only if h(x*) divides f(x*)
    (Knuth, TAOCP Vol. 2, 4.6.2), read off the scaled basis as
    common * h(x*) = sum(w[j] * E[j]) with E[j] = common * L_j(x*).  The
    near probe x* lies past Cauchy's root bound 1 + max|a_i| and past the
    points, so f(x*) != 0 and no factor fails the test.  Each inner
    combination's share of it is summed once, a prefix's matches are
    probed in one pass, and only those that pass are sorted into walk
    order.  On small inputs x* is
    small and h(x*) | f(x*) often holds by chance, so a match that passes
    is tested again at the far probe x*^3, with its own basis values set
    up at the first such match: a search whose matches all fail the near
    probe pays nothing for it.
    """
    points = _POINTS[: k + 1]
    values = [f(x) for x in points]
    if 0 in values:
        raise InternalError(f"the degree-{k} search of {f} met an integer root")
    basis, common = _lagrange_basis(points)
    flead = f.leading_coefficient
    scaled_leads = [common * d for d in _candidate_values(flead, positive_only=False)]
    # h and -h divide alike, so pin h(points[0]) > 0: halves the search.
    sets = [_candidate_values(values[0], positive_only=True)]
    sets.extend(_candidate_values(v, positive_only=False) for v in values[1:])
    room = budget.cap - budget.spent
    if k == 2 and f.degree < _DEGREE_ANALYSIS_MIN_DEGREE and _no_quadratic_factor(f):
        # the walk would exhaust every candidate: charge them at once, or
        # room + 1 past the cap, as its prefixes would
        budget.spend(min(math.prod(map(len, sets)), room + 1))
        return None
    probe = 1 + max(*map(abs, f.coeffs), *map(abs, points))
    leads = [b[k] for b in basis]
    probes = [sum(c * probe**i for i, c in enumerate(b)) for b in basis]
    scaled_probe_value = common * f(probe)
    m = _inner_start([len(s) for s in sets], leads, common, len(scaled_leads))
    terms = [tuple(w * b for w in ws) for ws, b in zip(sets, leads)]
    index = collections.defaultdict(dict)
    for j, s in enumerate(_sumset(terms[m:])):
        index[s % common].setdefault(s, []).append(j)
    inner_probes = _sumset([tuple(w * e for w in ws) for ws, e in zip(sets[m:], probes[m:])])
    size = len(inner_probes)
    strides = [math.prod(map(len, sets[i + 1:])) for i in range(m, k + 1)]
    far_probes = scaled_far_value = None
    # the outer prefixes stay lazy: the budget can stop the walk long before
    # their product ends
    for prefix, partial in zip(itertools.product(*sets[:m]), map(sum, itertools.product(*terms[:m]))):
        sums = index.get(-partial % common)
        matches = _lead_matches(sums, partial, common, flead, scaled_leads) if sums else ()
        if matches:
            prefix_probe = sum(map(operator.mul, prefix, probes))
            # the matches within the room that pass the near probe, in walk order
            near = sorted(
                j
                for js in matches
                for j in js
                if j < room
                and (value := prefix_probe + inner_probes[j])
                and not scaled_probe_value % value
            )
            for j in near:
                inner = (s[j // stride % len(s)] for s, stride in zip(sets[m:], strides))
                combo = (*prefix, *inner)
                if far_probes is None:
                    # probe**2 still let a few chance divisors through on the
                    # acceptance box; probe**3 lets none through there
                    far = probe**3
                    far_probes = [sum(c * far**i for i, c in enumerate(b)) for b in basis]
                    scaled_far_value = common * f(far)
                value = sum(map(operator.mul, combo, far_probes))
                if value == 0 or scaled_far_value % value:
                    continue
                found = _candidate_factor(f, combo, basis, common)
                if found is not None:
                    budget.spend(j + 1)
                    return found
        # Past the cap this charges room + 1 and raises, as the
        # per-candidate walk would at its (room + 1)-th candidate.
        budget.spend(min(size, room + 1))
        room -= size
    return None


# ---------------------------------------------------------------------------
# Modular degree analysis
#
# Over F_q a polynomial is a list of residues, lowest degree first; Euclid's
# operands have no trailing zeros.  The Frobenius map and the evaluation
# tables pack residues into ints, 32 bits a slot.  Every factor of
# f over Z reduces to a product of factors of f mod q, so when q keeps the
# degree and f stays squarefree mod q, the degree of any integer factor is
# a subset sum of the degrees mod q.

_DEGREE_ANALYSIS_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# Below this degree the search never reaches k = 3 and the analysis costs
# more than the k = 2 search it could skip; that search gets a free screen
# (_no_quadratic_factor) instead.
_DEGREE_ANALYSIS_MIN_DEGREE = 6
# Below this degree five usable primes are enough: a search the analysis
# fails to rule out costs about as much as a few more primes.  From here on
# one unpruned degree can cost seconds, so every prime in the list is used;
# five primes leave about 9% of random degree-10 irreducibles unproven.
_DEGREE_ANALYSIS_ALL_PRIMES_DEGREE = 8
_DEGREE_ANALYSIS_FEW_PRIMES = 5
_SLOT_BITS = 8 * struct.calcsize("<I")


def _fq_rem(a: list[int], m: list[int], q: int) -> list[int]:
    """a mod m over F_q for reduced a and m, m[-1] != 0.

    Works in a's own list and returns it, reducing mod q as it goes; no
    quotient is built, and the remainder is not made monic.
    """
    dm = len(m) - 1
    inv = pow(m[-1], -1, q)
    for t in range(len(a) - 1, dm - 1, -1):
        c = a[t] * inv % q
        if c:
            base = t - dm
            for j in range(dm):
                a[base + j] = (a[base + j] - c * m[j]) % q
    del a[dm:]
    while a and a[-1] == 0:
        a.pop()
    return a


def _fq_gcd_degree(a: list[int], b: list[int], q: int) -> int:
    """Degree of gcd(a, b) over F_q for a nonzero, trimmed a and any b.

    Consumes both lists.  Euclid's remainders are never made monic: only
    the degree is needed.
    """
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _fq_rem(a, b, q)
    return len(a) - 1


def _integer_resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Res(a, b) over Z for a of degree m >= 1 and b of degree at most m,
    lowest degree first and without trailing zeros (b = () is 0).

    The subresultant PRS (Collins, J. ACM 14, 1967; Brown and Traub,
    J. ACM 18, 1971): each pseudo-remainder lc(b)^(delta + 1) a mod b,
    delta = deg a - deg b, divides exactly by g h^delta, for g = lc(a)
    and h the last subresultant's leading coefficient (both 1 at the first
    step), so every remainder is a subresultant, a minor of the Sylvester
    matrix, and no coefficient outgrows Hadamard's bound.  Zero exactly
    when a and b have a common factor of positive degree, or b = 0.
    """
    if not b:
        return 0
    sign = g = h = 1
    while len(b) > 1:
        m, k, lead = len(a) - 1, len(b) - 1, b[-1]
        delta = m - k
        if m & k & 1:
            sign = -sign
        r = list(a)
        for base in range(delta, -1, -1):
            c = r.pop()
            r = [lead * x for x in r]
            for j in range(k):
                r[base + j] -= c * b[j]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            return 0
        divisor = g * h**delta
        a, b = b, [c // divisor for c in r]
        g = lead
        h = g**delta // h ** (delta - 1) if delta else h
    m = len(a) - 1
    return sign * b[0] ** m // h ** (m - 1)


def _fq_unpack(slots: struct.Struct, packed: int, q: int) -> list[int]:
    return [c % q for c in slots.unpack(packed.to_bytes(slots.size, "little"))]


# Step d of the distinct-degree loop reads its number of factors of degree
# d off f's values at d = 1, and at d = 2 or 3 while F_{q^d} \ F_q has at
# most this many Frobenius orbits (q <= 13 at d = 2, q <= 5 at d = 3).
# Measured per step (2 vCPUs, CPython 3.11, n = 7 and 12): up to here an
# evaluation costs less than the step's gcd alone (78 orbits at q = 13:
# 4.8 against 8.1 us at n = 7), and far less than the Frobenius matrix,
# product and gcd a step without a later matrix step saves (29 us).  Past
# it the gcd is even or cheaper: 136 orbits (17, 2) took 7.2 against
# 7.7 us, 112 orbits (7, 3) 18.1 against 14.8 us.
_EVALUATED_ORBITS = 78
_EVALUATED_STEPS = frozenset(
    (q, d) for q in _DEGREE_ANALYSIS_PRIMES for d in (2, 3) if q**d - q <= d * _EVALUATED_ORBITS
)


@functools.cache
def _evaluation_table(q: int, d: int) -> tuple[tuple[int, ...], int, int, int, int, int]:
    """(rows, multiplier, low, bias, group, size) for counting the monic
    irreducible factors of degree d <= 3 over F_q.

    rows[i] packs x^i mod g, for i <= MAX_ORACLE_DEGREE and each of the
    `size` monic irreducible g of degree d, into d 32-bit slots per g:
    the coefficients of x^0 .. x^(d-1), so that f's residues times the
    rows sum to f(alpha) in the basis 1, alpha, .. for a root alpha of
    each g.  At d = 1 the g are x - a for a = 0 .. q-1 and slot a holds
    a^i mod q.  From d = 2 on they are the g with no root, since d <= 3:
    for each choice of g's coefficients past the constant term, one packed
    evaluation from the d = 1 table gives the constant terms that would
    give g a root.  Each row comes from the last as x * (x^i mod g) mod g
    over every g at once.  The other entries test every slot of such a
    sum for divisibility by q at once (:func:`_factor_count`); `group`
    holds bit 16 of each g's first slot.  Built once per (q, d) in a
    process, at its first count, so a cold command that counts nothing
    builds none.
    """
    if d == 1:
        minus = list(range(q))  # the low coefficient of x - a, negated
    else:
        powers = _evaluation_table(q, 1)[0]
        residues = struct.Struct(f"<{q}I")
        minus = []
        for upper in itertools.product(range(q), repeat=d - 1):
            values = sum(map(operator.mul, (0, *upper, 1), powers)).to_bytes(residues.size, "little")
            taken = {-v % q for v in residues.unpack(values)}
            for c in range(q):
                if c not in taken:
                    minus.extend(-e % q for e in (c, *upper))
    size = len(minus) // d
    slots = struct.Struct(f"<{d * size}I")
    power = [1, *[0] * (d - 1)] * size  # x^0 mod g, d coefficients a g
    rows = [int.from_bytes(slots.pack(*power), "little")]
    for _ in range(MAX_ORACLE_DEGREE):
        # x * (x^i mod g): shift each g's coefficients up one, and fold
        # its top one back in as x^d = -(g's low coefficients)
        top = power[d - 1 :: d]
        if d == 1:
            power = [c * t % q for c, t in zip(minus, top)]
        else:
            shifted = [0, *power[:-1]]
            shifted[::d] = [0] * size
            tops = itertools.chain.from_iterable(zip(*[top] * d))
            power = [(s + c * t) % q for s, c, t in zip(shifted, minus, tops)]
        rows.append(int.from_bytes(slots.pack(*power), "little"))
    ones = int.from_bytes(b"\1\0\0\0" * d * size, "little")
    group = int.from_bytes((b"\0\0\1\0" + bytes(4 * d - 4)) * size, "little")
    multiplier, most = (1 << 15, 0) if q == 2 else (pow(q, -1, 1 << 16), 0xFFFF // q)
    return tuple(rows), multiplier, 0xFFFF * ones, (0xFFFF - most) * ones, group, size


def _factor_count(f: list[int], q: int, d: int) -> int:
    """The number of monic irreducible g of degree d <= 3 that divide f
    over F_q, for f's residues lowest degree first, of degree at most
    MAX_ORACLE_DEGREE (InternalError past it).  At d = 1 it is f's number
    of roots in F_q; for a squarefree f it is its number of factors of
    degree d.

    f(alpha) for a root alpha of every g is one sum of products with
    _evaluation_table's rows, and no slot of it passes (n + 1)(q - 1)^2,
    which is at most 13 * 46^2 < 2^16 at the oracle's limits.  For v
    below 2^16 and an odd q, v times q's inverse mod 2^16 is at most
    (2^16 - 1) // q exactly when q divides v (Granlund and Montgomery,
    PLDI 1994, section 9); for q = 2, v * 2^15 mod 2^16 is 0 exactly when
    v is even.  So one product, one mask and one sum set bit 16 of every
    slot that q does not divide, with no unpack, and g divides f when
    none of its d slots has that bit.
    """
    rows, multiplier, low, bias, group, size = _evaluation_table(q, d)
    if len(f) > len(rows):
        raise InternalError(f"a degree-{d} factor count mod {q} at degree {len(f) - 1}, past its table")
    nonzero = (sum(map(operator.mul, f, rows)) * multiplier & low) + bias
    flags = nonzero
    for j in range(1, d):
        flags |= nonzero >> 32 * j
    return size - (flags & group).bit_count()


def _frobenius_matrix(f: list[int], q: int, slots: struct.Struct) -> list[int]:
    """The columns x^(i*q) mod f, packed, of h -> h^q mod f over F_q for the monic f.

    Over F_q the q-th power is additive and fixes constants, so h^q mod f
    is sum(h[i] * column[i]): each Frobenius step of the distinct-degree
    loop is one sum of products and one unpack.
    """
    n = len(f) - 1
    top = _SLOT_BITS * (n - 1)
    minus_low = int.from_bytes(slots.pack(*[-c % q for c in f[:n]]), "little")
    # x^(q + j) mod f for j < n, in a shift register: x * v folds the top
    # slot back in as x^n = -low, and only that slot is reduced, so every
    # slot stays at most n (q - 1)^2
    e = min(q, n - 1)
    v = 1 << _SLOT_BITS * e
    shifted = [v] if e == q else []
    while len(shifted) < n:
        v = ((v & (1 << top) - 1) << _SLOT_BITS) + (v >> top) % q * minus_low
        e += 1
        if e >= q:
            shifted.append(v)
    # x^((i + 1) q) = x^q x^(iq): column i + 1 is sum(c_k * shifted[k]) for column i's c_k
    column = _fq_unpack(slots, shifted[0], q)
    columns = [1, int.from_bytes(slots.pack(*column), "little")]
    while len(columns) < n:
        column = _fq_unpack(slots, sum(map(operator.mul, column, shifted)), q)
        columns.append(int.from_bytes(slots.pack(*column), "little"))
    return columns


def _distinct_degrees(f: list[int], q: int, meter: _Budget, parity: int | None) -> list[int]:
    """Degrees of the irreducible factors of the monic squarefree f over F_q.

    Distinct-degree factorization: gcd(f, x^(q^d) - x) is the product of
    the factors whose degree divides d, so its degree is the sum of e over
    the factors of each degree e that divides d.  Once no factor of degree
    up to d is left, what is left of f is irreducible.  Step d = 1, and
    step d = 2 or 3 where (q, d) is in _EVALUATED_STEPS, reads the number
    of factors of degree d off f's values at one root of each irreducible
    g of degree d (:func:`_factor_count`).  The Frobenius matrix is built
    only when another step runs, and the walk brings h up to x^(q^d) mod
    f from x^q, one product per degree; the matrix's units, one per
    column, are charged first either way, and an evaluated step is
    charged as a step: the units are those of a walk that takes every
    step's product and gcd.

    parity, None for q = 2, is the number of factors mod 2.  At a step
    d >= 2 whose `left` is at most 2d + 1, the factors left all have
    degree at least d, so they are one of degree `left` or two of degrees
    d and left - d, and parity tells which: that last step is charged as
    usual but takes neither its Frobenius product nor its gcd.
    """
    n = left = len(f) - 1
    # the Frobenius matrix's units: 2 for x^q, then 1 per further column
    meter.spend(2)
    for _ in range(n - 2):
        meter.spend()
    degrees: list[int] = []
    if left >= 2:
        meter.spend(2)  # step d = 1, charged as one Frobenius step and one gcd
        degrees = [1] * _factor_count(f, q, 1)
        left -= len(degrees)
    columns = None
    d = 1
    while 2 * (d + 1) <= left:
        d += 1
        meter.spend(2)  # one Frobenius step, one gcd
        if parity is not None and left <= 2 * d + 1:
            # an even count of factors left: two, of degrees d and left - d
            if (parity - len(degrees)) % 2 == 0:
                degrees.append(d)
                left -= d
            break
        if (q, d) in _EVALUATED_STEPS:
            count = _factor_count(f, q, d)
        else:
            if columns is None:
                slots = struct.Struct(f"<{n}I")
                columns = _frobenius_matrix(f, q, slots)
                h, reached = _fq_unpack(slots, columns[1], q), 1  # x^q mod f
            while reached < d:  # up to x^(q^d) mod f
                h = _fq_unpack(slots, sum(map(operator.mul, h, columns)), q)
                reached += 1
            h_minus_x = h.copy()
            h_minus_x[1] = (h_minus_x[1] - 1) % q
            known = sum(e for e in degrees if d % e == 0)
            count = (_fq_gcd_degree(list(f), h_minus_x, q) - known) // d
        degrees.extend([d] * count)
        left -= d * count
    if left:
        degrees.append(left)
    return degrees


def _usable_primes(f: Polynomial, meter: _Budget | None) -> Iterator[tuple[int, list[int], int | None]]:
    """(q, monic f mod q, parity) for each usable prime in the fixed list.

    One integer resultant R = Res(f, f') (:func:`_integer_resultant`)
    serves every prime.  Mod a prime q that does not divide f's leading
    coefficient c, the Sylvester matrix of f and f' is that of f mod q and
    its derivative, so R = c^(2n-1) Res(g, g') mod q for the monic g = f/c
    mod q, and g is squarefree exactly when q does not divide R.  A prime
    is usable when it divides neither c nor R; each prime that does not
    divide c costs one unit of meter, when one is given.  For odd q, R
    also gives the parity of the number r of factors mod q (Stickelberger
    1897; Swan, Pacific J. Math. 12, 1962): g's discriminant
    (-1)^(n(n-1)/2) Res(g, g') is a square in F_q exactly when n - r is
    even, and has the square class of (-1)^(n(n-1)/2) c R.  parity is
    None for q = 2.
    """
    n, lead = f.degree, f.leading_coefficient
    res = _integer_resultant(f.coeffs, [i * c for i, c in enumerate(f.coeffs)][1:])
    disc = lead * res if n % 4 < 2 else -lead * res
    for q in _DEGREE_ANALYSIS_PRIMES:
        if lead % q == 0:
            continue
        if meter is not None:
            meter.spend()
        if res % q == 0:
            continue
        inv = pow(lead, -1, q)
        parity = None if q == 2 else (n + (pow(disc, (q - 1) // 2, q) != 1)) % 2
        yield q, [c * inv % q for c in f.coeffs], parity


def _modular_factor_degrees(
    f: Polynomial, meter: _Budget
) -> Iterator[tuple[int, list[int]]]:
    """(q, factor degrees of f mod q) for each usable prime (:func:`_usable_primes`)."""
    for q, fq, parity in _usable_primes(f, meter):
        yield q, _distinct_degrees(fq, q, meter, parity)


def _no_quadratic_factor(f: Polynomial) -> bool:
    """True when one of the first few usable primes shows that f, of
    degree 4 or 5, has no factor of degree 2.  Spends nothing.

    Mod q, f has r roots, and what is left, of degree n - r, has no
    linear factor.  With r >= 2 two linear factors make degree 2.  Else
    what is left is one irreducible factor, or two of degrees 2 and
    n - r - 2; a cubic (n = 4, r = 1) is always one, and for odd q the
    parity of the number of factors tells which.  One factor leaves
    degree sets {4}, {1, 3}, {5} or {1, 4}: no subset sums to 2.
    """
    n = f.degree
    for q, fq, parity in itertools.islice(_usable_primes(f, None), _DEGREE_ANALYSIS_FEW_PRIMES):
        roots = _factor_count(fq, q, 1)
        if roots < 2 and (n - roots == 3 or parity is not None and (parity - roots) % 2):
            return True
    return False


def _allowed_factor_degrees(f: Polynomial, meter: _Budget) -> frozenset[int]:
    """Degrees an integer factor of f can have, from degree analysis mod q.

    Intersects the subset sums of the degrees mod each usable prime, and
    stops at {0, n} (f is irreducible) or when the primes allowed for
    this degree run out.  With no usable prime every degree 0..n stays
    allowed.
    """
    n = f.degree
    irreducible = 1 | 1 << n
    allowed = (1 << (n + 1)) - 1
    if n < _DEGREE_ANALYSIS_ALL_PRIMES_DEGREE:
        max_primes = _DEGREE_ANALYSIS_FEW_PRIMES
    else:
        max_primes = len(_DEGREE_ANALYSIS_PRIMES)
    used = 0
    for _, degrees in _modular_factor_degrees(f, meter):
        sums = 1
        for e in degrees:
            sums |= sums << e
        allowed &= sums
        used += 1
        if allowed == irreducible or used == max_primes:
            break
    return frozenset(k for k in range(n + 1) if allowed >> k & 1)


def kronecker_factor(f: Polynomial, budget: int | None = None) -> FactorizationWitness:
    """Complete factorization of f into irreducibles over the rationals.

    Deterministic: same input, same witness.  Raises OracleBudgetError
    when f exceeds desk-scale limits or the candidate budget runs out;
    never returns a partial or unverified answer.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree > MAX_ORACLE_DEGREE:
        raise OracleBudgetError(
            f"oracle out of budget: degree {f.degree} exceeds the"
            f" desk-scale limit {MAX_ORACLE_DEGREE}"
        )
    if max(abs(c) for c in f.coeffs) > MAX_ORACLE_COEFF:
        raise OracleBudgetError(
            f"oracle out of budget: coefficient magnitude exceeds {MAX_ORACLE_COEFF}"
        )
    meter = _Budget(budget if budget is not None else oracle_budget())

    content, prim = content_and_primitive(f)
    sign = 1
    if prim.leading_coefficient < 0:
        sign = -1
        prim = -prim
    factors: list[Polynomial] = []
    while prim.constant_term == 0 and prim.degree > 0:
        factors.append(Polynomial((0, 1)))
        prim = Polynomial(prim.coeffs[1:])
    # Every factor of a later quotient also divides this prim, so a degree
    # the analysis rules out here has no factor at any later step either:
    # skipping its search leaves the witness unchanged.
    if prim.degree >= _DEGREE_ANALYSIS_MIN_DEGREE:
        allowed = _allowed_factor_degrees(prim, meter)
    else:
        allowed = frozenset(range(prim.degree + 1))
    # k = 1 tests rational roots; a remainder of degree 1 needs no search.
    k = 1
    while 2 * k <= prim.degree:
        found = None
        if k in allowed:
            found = _rational_root_factor(prim, meter) if k == 1 else _factor_of_degree(prim, k, meter)
        if found is None:
            # no factor of degree k exists; anything found later at
            # degree k' > k is irreducible since smaller splits are gone
            k += 1
            continue
        h, prim = found
        if h.leading_coefficient < 0:
            h, prim = -h, -prim
        factors.append(h)
    if prim.degree >= 1:
        factors.append(prim)

    factors.sort(key=lambda g: (g.degree, g.coeffs))
    witness = FactorizationWitness(sign, content, tuple(factors))
    if witness._product != f:
        raise WitnessIntegrityError(f"witness for {f} does not multiply back to its input")
    return witness


# ---------------------------------------------------------------------------
# Certificate verification


class BipartitionCheck(_Value):
    """One unordered split of the factor multiset, with the clauses it met."""

    __slots__ = ("degrees", "satisfied")

    def __init__(self, degrees: tuple[int, int], satisfied: tuple[str, ...]):
        _bind(self, "degrees", degrees)
        _bind(self, "satisfied", satisfied)


class VerificationReport(_Value):
    """Outcome of checking one certificate against one witness."""

    __slots__ = (
        "passed", "content_valuation", "factor_degrees", "bipartitions", "no_split_clauses"
    )

    def __init__(
        self,
        passed: bool,
        content_valuation: int,
        factor_degrees: tuple[int, ...],
        bipartitions: tuple[BipartitionCheck, ...],
        no_split_clauses: tuple[str, ...],
    ):
        _bind(self, "passed", passed)
        _bind(self, "content_valuation", content_valuation)
        _bind(self, "factor_degrees", factor_degrees)
        _bind(self, "bipartitions", bipartitions)
        _bind(self, "no_split_clauses", no_split_clauses)


def _bipartition_degrees(factors: tuple[Polynomial, ...]) -> Iterator[tuple[int, int]]:
    """Degree sums (d1, d2), d1 <= d2, of the unordered bipartitions of the factors.

    Splits the factor multiset into two nonempty blocks; each unordered
    split appears once, in a fixed order (left <= right as multiplicity
    vectors over the distinct factors in witness order).  Fewer than two
    factors have no such split.
    """
    if len(factors) < 2:
        return
    unique = sorted(set(factors), key=lambda g: (g.degree, g.coeffs))
    counts = [factors.count(g) for g in unique]
    degrees = [g.degree for g in unique]
    for left in itertools.product(*(range(c + 1) for c in counts)):
        right = tuple(c - l for c, l in zip(counts, left))
        if not any(left) or not any(right) or left > right:
            continue
        d1 = sum(v * d for v, d in zip(left, degrees))
        d2 = sum(v * d for v, d in zip(right, degrees))
        yield (d1, d2) if d1 <= d2 else (d2, d1)


def verify_certificate(
    f: Polynomial, p: int, cert: Certificate, witness: FactorizationWitness
) -> VerificationReport:
    """Check that the witness satisfies the certificate's disjunction.

    Every bipartition of the irreducible factors into two nonconstant
    blocks must satisfy at least one clause; a witness with a single
    factor has no bipartition, and then its one check is the clauses
    asked with no split (irreducible, or content divisible by p).  Each
    clause decides through its ``accepts``, and a check lists the kinds
    it satisfied in the certificate's clause order.  A witness that does
    not multiply back to f raises WitnessIntegrityError.
    """
    if witness._product != f:
        raise WitnessIntegrityError(f"witness does not multiply back to {f}")
    if not cert.applies:
        raise ValueError("cannot verify a certificate that asserts nothing")
    content_val = p_adic_valuation(witness.content, p)
    if not witness.factors:
        raise InternalError(f"the witness for {f} has no nonconstant factor")
    content_divisible = content_val > 0

    def satisfied(split: tuple[int, int] | None) -> tuple[str, ...]:
        return tuple(c.kind for c in cert.clauses if c.accepts(split, content_divisible))

    checks = tuple(
        BipartitionCheck(split, satisfied(split)) for split in witness._degree_pairs
    )
    no_split = () if checks else satisfied(None)
    return VerificationReport(
        passed=all(c.satisfied for c in checks) if checks else bool(no_split),
        content_valuation=content_val,
        factor_degrees=witness.factor_degrees,
        bipartitions=checks,
        no_split_clauses=no_split,
    )


def check_dumas_consistency(
    pairs: Sequence[tuple[int, int]], witness: FactorizationWitness
) -> list[tuple[int, int]]:
    """Bipartition degree pairs of the witness missing from the allowed set."""
    return sorted(set(witness._degree_pairs).difference(pairs))


def __getattr__(name: str):
    # The sweeps live in their own module; `oracle.sweep` forwards there.
    # Not cached in this namespace: every access reads `sweeps.sweep`, so a
    # function rebound there (by a tracer or a test) is seen.
    if name == "sweep":
        from . import sweeps

        return sweeps.sweep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
