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
(five below degree 8, up to fifteen from degree 8 on), distinct-degree
factorization over F_q gives the degrees of f's factors mod q; an
integer factor's degree must be a subset sum of them for every such q.
Other degrees hold no factor and are never searched, so the witness is
unchanged; {0, n} proves f irreducible.  The Frobenius map h -> h^q
mod f is n packed ints, one per column x^(iq) mod f, with a 32-bit slot
per coefficient, so each step is one sum of products and one unpack;
at the oracle's limits no slot passes n^2 (q - 1)^3 < 2^32.

Work is metered by candidate count (rational-root candidates plus
divisor combinations); the degree analysis charges one unit per
product mod f and per gcd over F_q.  Only divisor combinations whose
interpolated leading coefficient divides f's are looked at: the
trailing points' combinations are indexed by their exact share of that
coefficient, each combination of the leading points looks them up, and
the rest are charged at once.  A match is built and trial-divided only
when its value at a probe past Cauchy's root bound divides f's value
there.  Exceeding the cap (10^7, or NEWTON_GAUGE_BUDGET) or the
desk-scale limits (degree <= 12, |coefficients| <= 10^9) raises
:class:`OracleBudgetError`.

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
from typing import Iterator, Optional, Sequence

from .criteria import Certificate
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
    """Candidate cap: NEWTON_GAUGE_BUDGET when set, else the default.

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
                f"oracle out of budget: {self.spent} candidates exceed the cap"
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


def exact_divide(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
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
        num = Polynomial.constant(1)
        den = 1
        for i, xi in enumerate(points):
            if i == j:
                continue
            num = num * Polynomial((-xi, 1))
            den *= xj - xi
        basis.append(num)
        dens.append(den)
    common = math.lcm(*(abs(d) for d in dens))
    scaled = tuple(
        tuple(c * (common // den) for c in num.coeffs)
        for num, den in zip(basis, dens)
    )
    return scaled, common


def _candidate_values(value: int, positive_only: bool) -> tuple[int, ...]:
    divs = _divisors(value)
    return divs if positive_only else tuple(x for d in divs for x in (d, -d))


def _rational_root_factor(f: Polynomial, budget: _Budget) -> Optional[tuple[Polynomial, Polynomial]]:
    """A primitive linear factor q*x - r of f and its cofactor, or None.

    Candidates r/q run over divisors of the constant and leading
    coefficients in a fixed order; each test costs one budget unit.
    The root test evaluates sum a_i r^i q^(n-i) in integers, and the
    root found is divided out once: InternalError if that fails.
    """
    a0 = f.constant_term
    an = f.leading_coefficient
    n = f.degree
    for q in _divisors(an):
        for mag in _divisors(a0):
            if math.gcd(mag, q) != 1:
                continue
            for r in (mag, -mag):
                budget.spend()
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
) -> Optional[tuple[Polynomial, Polynomial]]:
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


def _inner_start(sizes: list[int], leads: list[int], common: int, targets: int) -> int:
    """The first inner point: minimises outer prefixes times keys per prefix
    plus inner entries.  A prefix reads the shorter of the targets and its
    class; inner sums fall into lcm(common / |B[j][k]|) residue classes."""

    def cost(m: int) -> int:
        inner = math.prod(sizes[m:])
        classes = math.lcm(*(common // abs(b) for b in leads[m:]))
        return math.prod(sizes[:m]) * min(targets, -(-inner // classes)) + inner

    bound = max(sizes[-1], _MAX_INNER_INDEX)
    return min((m for m in range(len(sizes)) if math.prod(sizes[m:]) <= bound), key=cost)


def _lead_matches(
    sums: dict[int, list[int]], partial: int, common: int, flead: int, scaled_leads: list[int]
) -> list[int]:
    """Ascending positions of the sums s in one residue class with
    partial + s = common * L, L | flead: tests each sum, or looks up each
    target common * L - partial, whichever list is shorter."""
    if len(sums) <= len(scaled_leads):
        hits = [js for s, js in sums.items() if (lead := (partial + s) // common) and flead % lead == 0]
    else:
        hits = [sums[t] for t in (c - partial for c in scaled_leads) if t in sums]
    return hits[0] if len(hits) == 1 else sorted(itertools.chain(*hits))


def _factor_of_degree(f: Polynomial, k: int, budget: _Budget) -> Optional[tuple[Polynomial, Polynomial]]:
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
    probe x* lies past Cauchy's root bound 1 + max|a_i| and past the
    points, so f(x*) != 0 and no factor fails the test.
    """
    points = _POINTS[: k + 1]
    values = [f(x) for x in points]
    if 0 in values:
        raise InternalError(f"the degree-{k} search of {f} met an integer root")
    probe = 1 + max(*map(abs, f.coeffs), *map(abs, points))
    basis, common = _lagrange_basis(points)
    leads = [b[k] for b in basis]
    probes = [sum(c * probe**i for i, c in enumerate(b)) for b in basis]
    flead = f.leading_coefficient
    scaled_probe_value = common * f(probe)
    scaled_leads = [common * d for d in _candidate_values(flead, positive_only=False)]
    # h and -h divide alike, so pin h(points[0]) > 0: halves the search.
    sets = [_candidate_values(values[0], positive_only=True)]
    sets.extend(_candidate_values(v, positive_only=False) for v in values[1:])
    m = _inner_start([len(s) for s in sets], leads, common, len(scaled_leads))
    terms = [tuple(w * b for w in ws) for ws, b in zip(sets, leads)]
    index = collections.defaultdict(dict)
    for j, s in enumerate(map(sum, itertools.product(*terms[m:]))):
        index[s % common].setdefault(s, []).append(j)
    probe_terms = [tuple(w * e for w in ws) for ws, e in zip(sets[m:], probes[m:])]
    inner_probes = list(map(sum, itertools.product(*probe_terms)))
    size = len(inner_probes)
    strides = [math.prod(map(len, sets[i + 1:])) for i in range(m, k + 1)]
    room = budget.cap - budget.spent
    for prefix, partial in zip(itertools.product(*sets[:m]), map(sum, itertools.product(*terms[:m]))):
        sums = index.get(-partial % common)
        matches = _lead_matches(sums, partial, common, flead, scaled_leads) if sums else ()
        if matches:
            prefix_probe = sum(map(operator.mul, prefix, probes))
            for j in matches:
                if j >= room:
                    break
                value = prefix_probe + inner_probes[j]
                if value == 0 or scaled_probe_value % value:
                    continue
                inner = (s[j // stride % len(s)] for s, stride in zip(sets[m:], strides))
                found = _candidate_factor(f, (*prefix, *inner), basis, common)
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
# operands have no trailing zeros.  The Frobenius map packs residues into
# ints, 32 bits a slot.  Every factor of f over Z reduces to a product of
# factors of f mod q, so when q keeps the degree and f stays squarefree mod
# q, the degree of any integer factor is a subset sum of the degrees mod q.

_DEGREE_ANALYSIS_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# Below this degree the search never reaches k = 3 and the analysis costs
# more than the k = 2 search it could skip.
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


def _fq_unpack(slots: struct.Struct, packed: int, q: int) -> list[int]:
    return [c % q for c in slots.unpack(packed.to_bytes(slots.size, "little"))]


def _frobenius_matrix(f: list[int], q: int, slots: struct.Struct, meter: _Budget) -> list[int]:
    """The columns x^(i*q) mod f, packed, of h -> h^q mod f over F_q for the monic f.

    Over F_q the q-th power is additive and fixes constants, so h^q mod f
    is sum(h[i] * column[i]): each Frobenius step of the distinct-degree
    loop is one sum of products and one unpack.  One unit per column.
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
    meter.spend(2)
    # x^((i + 1) q) = x^q x^(iq): column i + 1 is sum(c_k * shifted[k]) for column i's c_k
    column = _fq_unpack(slots, shifted[0], q)
    columns = [1, int.from_bytes(slots.pack(*column), "little")]
    while len(columns) < n:
        meter.spend()
        column = _fq_unpack(slots, sum(map(operator.mul, column, shifted)), q)
        columns.append(int.from_bytes(slots.pack(*column), "little"))
    return columns


def _distinct_degrees(f: list[int], q: int, meter: _Budget) -> list[int]:
    """Degrees of the irreducible factors of the monic squarefree f over F_q.

    Distinct-degree factorization: gcd(f, x^(q^d) - x) is the product of
    the factors whose degree divides d, so its degree is the sum of e over
    the factors of each degree e that divides d.  Once no factor of degree
    up to d is left, what is left of f is irreducible.
    """
    left = len(f) - 1
    slots = struct.Struct(f"<{left}I")
    columns = _frobenius_matrix(f, q, slots, meter)
    degrees: list[int] = []
    h = [0, 1]  # x^(q^d) mod f
    d = 0
    while 2 * (d + 1) <= left:
        d += 1
        meter.spend(2)  # one Frobenius step, one gcd
        h = _fq_unpack(slots, sum(map(operator.mul, h, columns)), q)
        h_minus_x = h.copy()
        h_minus_x[1] = (h_minus_x[1] - 1) % q
        known = sum(e for e in degrees if d % e == 0)
        count = (_fq_gcd_degree(list(f), h_minus_x, q) - known) // d
        degrees.extend([d] * count)
        left -= d * count
    if left:
        degrees.append(left)
    return degrees


def _modular_factor_degrees(
    f: Polynomial, meter: _Budget
) -> Iterator[tuple[int, list[int]]]:
    """(q, factor degrees of f mod q) for each usable prime in the fixed list.

    A prime is usable when it does not divide the leading coefficient and
    f stays squarefree mod q, i.e. gcd(f, f') over F_q is constant.
    """
    for q in _DEGREE_ANALYSIS_PRIMES:
        if f.leading_coefficient % q == 0:
            continue
        inv = pow(f.leading_coefficient, -1, q)
        fq = [c * inv % q for c in f.coeffs]
        derivative = [i * c % q for i, c in enumerate(fq)][1:]
        meter.spend()
        if _fq_gcd_degree(list(fq), derivative, q) > 0:
            continue
        yield q, _distinct_degrees(fq, q, meter)


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


def kronecker_factor(f: Polynomial, budget: Optional[int] = None) -> FactorizationWitness:
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

    def satisfied(split: Optional[tuple[int, int]]) -> tuple[str, ...]:
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
