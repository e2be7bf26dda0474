import collections
import itertools
import json
import math
import pickle
import random
import struct
import types
from fractions import Fraction

import pytest
import sympy

from newton_gauge import criteria, families, newton, oracle, report, sweeps
from newton_gauge.criteria import (
    AlphaSplit,
    Analysis,
    Certificate,
    CriteriaParameters,
    DegreeZeroFactor,
    FactorDegreeMultipleOf,
    Irreducible,
    analyze,
)
from newton_gauge.oracle import (
    BUDGET_ENV_VAR,
    BipartitionCheck,
    DEFAULT_BUDGET,
    FactorizationWitness,
    MAX_ORACLE_COEFF,
    MAX_ORACLE_DEGREE,
    OracleBudgetError,
    WitnessIntegrityError,
    check_dumas_consistency,
    exact_divide,
    kronecker_factor,
    oracle_budget,
    verify_certificate,
)
from newton_gauge.oracle import (
    VerificationReport,
    _Budget,
    _allowed_factor_degrees,
    _divisors,
    _modular_factor_degrees,
)
from newton_gauge.sweeps import (
    SweepSummary,
    Violation,
    _spot_check,
    _sweep_entry,
    exhaustive_polynomials,
    sampled_polynomials,
    sweep,
    sweep_family,
)
from newton_gauge.polynomial import (
    AnalysisInput,
    InternalError,
    InvalidInputError,
    Polynomial,
    content_and_primitive,
    parse_polynomial,
)
from newton_gauge.report import sweep_report
from newton_gauge.valuation import p_adic_valuation


def _poly(text):
    return parse_polynomial(text)


def _factor_strings(witness):
    return [str(g) for g in witness.factors]


# ---------------------------------------------------------------------------
# budget plumbing


def test_oracle_budget_env(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    assert oracle_budget() == DEFAULT_BUDGET
    monkeypatch.setenv(BUDGET_ENV_VAR, "12345")
    assert oracle_budget() == 12345
    monkeypatch.setenv(BUDGET_ENV_VAR, "abc")
    with pytest.raises(ValueError, match="positive integer"):
        oracle_budget()
    monkeypatch.setenv(BUDGET_ENV_VAR, "0")
    with pytest.raises(InvalidInputError, match="positive integer"):
        oracle_budget()


def test_budget_exhaustion(monkeypatch):
    # x^2+1 tests the roots 1 and -1: 2 units
    assert kronecker_factor(_poly("x^2+1"), budget=2).factors == (_poly("x^2+1"),)
    with pytest.raises(OracleBudgetError, match="raise NEWTON_GAUGE_BUDGET"):
        kronecker_factor(_poly("x^2+1"), budget=1)
    monkeypatch.setenv(BUDGET_ENV_VAR, "1")
    with pytest.raises(OracleBudgetError):
        kronecker_factor(_poly("x^2+1"))


def test_desk_scale_limits():
    with pytest.raises(OracleBudgetError, match="degree 13"):
        kronecker_factor(_poly("x^13+1"))
    with pytest.raises(OracleBudgetError, match="coefficient magnitude"):
        kronecker_factor(Polynomial((MAX_ORACLE_COEFF + 1, 1, 1)))
    assert MAX_ORACLE_DEGREE == 12


# ---------------------------------------------------------------------------
# exact division


def test_exact_divide():
    assert exact_divide(_poly("x^2-1"), _poly("x-1")) == _poly("x+1")
    assert exact_divide(_poly("x^2-1"), _poly("x+2")) is None
    assert exact_divide(_poly("2x^2+2"), _poly("2")) == _poly("x^2+1")
    assert exact_divide(_poly("x^2+x"), _poly("2x+1")) is None
    assert exact_divide(_poly("x^3"), _poly("x")) == _poly("x^2")
    assert exact_divide(Polynomial(), _poly("x+1")) == Polynomial()
    assert exact_divide(_poly("x"), _poly("x^2")) is None
    f = _poly("x^3-2x+5")
    assert exact_divide(f, f) == Polynomial((1,))
    assert exact_divide(Polynomial((3,)) * f, f) == Polynomial((3,))
    with pytest.raises(ZeroDivisionError):
        exact_divide(_poly("x"), Polynomial())


def test_exact_divide_random_products():
    rng = random.Random(31415)
    for _ in range(500):
        f = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))] + [rng.randint(1, 9)])
        g = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))] + [rng.randint(1, 9)])
        assert exact_divide(f * g, g) == f
        assert exact_divide(f * g, f) == g


# ---------------------------------------------------------------------------
# factorization oracle


def test_kronecker_known_factorizations():
    w = kronecker_factor(_poly("x^2-1"))
    assert (w.sign, w.content) == (1, 1)
    assert _factor_strings(w) == ["x-1", "x+1"]
    assert w.factor_degrees == (1, 1)

    w = kronecker_factor(_poly("x^2+2"))
    assert _factor_strings(w) == ["x^2+2"]

    w = kronecker_factor(_poly("x^2+x"))
    assert _factor_strings(w) == ["x", "x+1"]

    w = kronecker_factor(_poly("-4x^2+8"))
    assert (w.sign, w.content) == (-1, 4)
    assert _factor_strings(w) == ["x^2-2"]
    assert w.reconstruct() == _poly("-4x^2+8")

    w = kronecker_factor(_poly("2x^2-3x+1"))
    assert _factor_strings(w) == ["x-1", "2*x-1"]

    w = kronecker_factor(_poly("6x^3+6x^2"))
    assert (w.sign, w.content) == (1, 6)
    assert _factor_strings(w) == ["x", "x", "x+1"]

    w = kronecker_factor(_poly("x^4+4x^2+4"))
    assert _factor_strings(w) == ["x^2+2", "x^2+2"]

    w = kronecker_factor(Polynomial.constant(-6))
    assert (w.sign, w.content, w.factors) == (-1, 6, ())


def test_kronecker_irreducible_keeps_whole():
    w = kronecker_factor(_poly("x^6+2x^3+8"))
    assert _factor_strings(w) == ["x^6+2*x^3+8"]


def test_kronecker_degree_twelve_two_segment():
    w = kronecker_factor(_poly("x^12+4x^4+16"))
    assert _factor_strings(w) == ["x^4+2", "x^8-2*x^4+8"]
    assert w.factor_degrees == (4, 8)


def test_kronecker_rejects_zero():
    with pytest.raises(ValueError, match="zero polynomial"):
        kronecker_factor(Polynomial())


def test_kronecker_is_deterministic():
    f = _poly("6x^4-6")
    assert kronecker_factor(f) == kronecker_factor(f)


_X = sympy.symbols("x")


def _sympy_factors(f):
    expr = sum(c * _X**i for i, c in enumerate(f.coeffs))
    coeff, parts = sympy.factor_list(expr)
    factors = []
    for g, mult in parts:
        coeffs = tuple(int(c) for c in reversed(sympy.Poly(g, _X).all_coeffs()))
        factors.extend([coeffs] * mult)
    return int(coeff), sorted(factors, key=lambda cs: (len(cs), cs))


def test_kronecker_agrees_with_sympy():
    rng = random.Random(2718)
    for _ in range(200):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)]
        coeffs.append(rng.choice([c for c in range(-9, 10) if c != 0]))
        f = Polynomial(coeffs)
        if f.degree < 1:
            continue
        w = kronecker_factor(f)
        lead, factors = _sympy_factors(f)
        assert w.sign * w.content == lead
        assert [g.coeffs for g in w.factors] == factors


# ---------------------------------------------------------------------------
# split-index candidate search


_REFERENCE_POINTS = (0, 1, -1, 2, -2, 3, -3)


def _has_root_at_the_points(f, k):
    return any(f(x) == 0 for x in _REFERENCE_POINTS[: k + 1])


def _reference_factor_of_degree(f, k, budget):
    """The per-candidate Kronecker walk that _factor_of_degree replaces:
    the first factor found and its cofactor, or None, for an f with no
    root at its k + 1 points.

    Charges one unit per candidate, in itertools.product order, and
    evaluates every candidate.
    """
    points = _REFERENCE_POINTS[: k + 1]
    values = [f(x) for x in points]
    assert 0 not in values, (str(f), k)
    basis, common = oracle._lagrange_basis(points)
    lead_col = tuple(b[k] for b in basis)
    flead = f.leading_coefficient
    candidate_sets = [oracle._candidate_values(values[0], positive_only=True)]
    candidate_sets.extend(oracle._candidate_values(v, positive_only=False) for v in values[1:])
    for combo in itertools.product(*candidate_sets):
        budget.spend()
        lead = sum(w * b for w, b in zip(combo, lead_col))
        if lead == 0 or lead % common != 0:
            continue
        hlead = lead // common
        if flead % hlead != 0:
            continue
        coeffs = []
        integral = True
        for c in range(k + 1):
            acc = sum(w * b[c] for w, b in zip(combo, basis))
            if acc % common != 0:
                integral = False
                break
            coeffs.append(acc // common)
        if not integral:
            continue
        h = Polynomial(coeffs)
        hc, _ = content_and_primitive(h)
        if hc != 1:
            continue
        cofactor = exact_divide(f, h)
        if cofactor is not None:
            return h, cofactor
    return None


def _padic_poly(rng, n, p):
    """Degree-n polynomial with coefficients u*p^e, |u| <= 3, e <= 2."""

    def coeff(nonzero):
        u = rng.choice((-3, -2, -1, 1, 2, 3)) if nonzero else rng.randint(-3, 3)
        return u * p ** rng.randint(0, 2)

    return Polynomial([coeff(True)] + [coeff(False) for _ in range(n - 1)] + [coeff(True)])


def _small_poly(rng, n):
    return Polynomial(
        [rng.choice((-2, -1, 1, 2))] + [rng.randint(-2, 2) for _ in range(n - 1)] + [rng.choice((1, 2))]
    )


def _search_corpus():
    """Seeded inputs for the Kronecker search: 120 from the acceptance box
    (degree 2-5), 80 u*p^e inputs of degree 6-7 (half of them products)
    and 24 built products of degree 8-10."""
    rng = random.Random(8)
    out = sampled_polynomials(5, 3, 120, seed=8)
    for i in range(80):
        p, n = rng.choice((2, 3)), rng.randint(6, 7)
        if i % 2:
            d1 = rng.randint(2, n - 2)
            out.append(_padic_poly(rng, d1, p) * _padic_poly(rng, n - d1, p))
        else:
            out.append(_padic_poly(rng, n, p))
    for _ in range(24):
        n = rng.randint(8, 10)
        d1 = rng.randint(2, n // 2)
        out.append(_small_poly(rng, d1) * _small_poly(rng, n - d1))
    return out


def _factor_outcome(monkeypatch, f, cap, reference=False):
    """(witness or budget message, units spent) of kronecker_factor(f, cap),
    with the reference root search and per-candidate walk when asked."""
    meters = []

    class Recorded(_Budget):
        __slots__ = ()

        def __init__(self, cap):
            super().__init__(cap)
            meters.append(self)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_Budget", Recorded)
        if reference:
            m.setattr(oracle, "_rational_root_factor", _reference_rational_root_factor)
            m.setattr(oracle, "_factor_of_degree", _reference_factor_of_degree)
        try:
            result = kronecker_factor(f, budget=cap)
        except OracleBudgetError as exc:
            result = str(exc)
    return result, meters[-1].spent


def _metered_factor(monkeypatch, f, budget):
    """kronecker_factor(f, budget) and the units its meter spent."""
    return _factor_outcome(monkeypatch, f, budget)


def _outcome(search, f, k, cap, spent):
    meter = _Budget(cap)
    meter.spent = spent
    try:
        result = search(f, k, meter)
    except OracleBudgetError as exc:
        result = str(exc)
    return result, meter.spent


def test_residue_indexed_search_matches_the_per_candidate_walk(monkeypatch):
    searches = []
    real = oracle._factor_of_degree

    def recording(f, k, budget):
        searches.append((f, k))
        return real(f, k, budget)

    monkeypatch.setattr(oracle, "_factor_of_degree", recording)
    for f in _search_corpus():
        kronecker_factor(f, budget=10**9)
    monkeypatch.undo()
    assert {k for _, k in searches} >= {2, 3, 4}
    found = 0
    rng = random.Random(88)
    for f, k in searches:
        reference = _outcome(_reference_factor_of_degree, f, k, 10**9, 0)
        assert _outcome(real, f, k, 10**9, 0) == reference, (str(f), k)
        found += reference[0] is not None
        units = reference[1]
        # the same units and the same error when the cap falls inside the
        # search, on a meter that has already spent some units
        for cap in {units - 1, rng.randrange(units)}:
            pre = rng.randrange(1000)
            expected = _outcome(_reference_factor_of_degree, f, k, pre + cap, pre)
            assert _outcome(real, f, k, pre + cap, pre) == expected, (str(f), k, cap)
            assert expected[1] == pre + cap + 1
    assert 0 < found < len(searches)


def test_budget_is_exact_at_the_total_spend(monkeypatch):
    for f in _search_corpus():
        witness, total = _metered_factor(monkeypatch, f, 10**9)
        assert total > 0
        assert kronecker_factor(f, budget=total) == witness
        message = f"{total} units exceed the cap of {total - 1} "
        with pytest.raises(OracleBudgetError, match=message):
            kronecker_factor(f, budget=total - 1)


def test_budget_units_on_the_seeded_corpus_are_pinned(monkeypatch):
    # Computed with the per-candidate walk; any change to what a search
    # charges changes this total.  A remainder of degree 1 is a factor
    # without a root search.
    total = sum(_metered_factor(monkeypatch, f, 10**9)[1] for f in _search_corpus())
    assert total == 714_946


def test_a_linear_remainder_is_never_searched(monkeypatch):
    # x - 1 is found at the root 1, and x + 1 is what is left: 1 unit
    witness, units = _metered_factor(monkeypatch, _poly("x^2-1"), 10**9)
    assert _factor_strings(witness) == ["x-1", "x+1"]
    assert units == 1
    degrees = []
    real = oracle._rational_root_factor
    monkeypatch.setattr(
        oracle, "_rational_root_factor", lambda f, budget: degrees.append(f.degree) or real(f, budget)
    )
    for f in _search_corpus():
        kronecker_factor(f, budget=10**9)
    assert min(degrees) == 2


def test_each_factor_is_divided_out_once(monkeypatch):
    # Every search returns the cofactor of the one division that accepted
    # its factor, so no dividend is divided again once a factor of it was
    # found, and no division is repeated.
    calls = []
    real = oracle.exact_divide

    def recording(f, g):
        quotient = real(f, g)
        calls.append((f, g, quotient is not None))
        return quotient

    monkeypatch.setattr(oracle, "exact_divide", recording)
    found = 0
    for f in _search_corpus():
        del calls[:]
        witness = kronecker_factor(f, budget=10**9)
        divided = [(g, h) for g, h, ok in calls if ok]
        assert all(h in witness.factors or -h in witness.factors for _, h in divided), str(f)
        for i, (g, h, ok) in enumerate(calls):
            later = [(g2, h2) for g2, h2, _ in calls[i + 1:]]
            assert (g, h) not in later, (str(f), str(h))
            if ok:
                assert g not in [g2 for g2, _ in later], (str(f), str(h))
        found += len(divided)
    assert found > 100


def _count_built(monkeypatch):
    """A list whose length counts the calls of oracle._candidate_factor."""
    built = []
    real = oracle._candidate_factor

    def counting(*args):
        built.append(None)
        return real(*args)

    monkeypatch.setattr(oracle, "_candidate_factor", counting)
    return built


def test_candidates_built_on_the_seeded_corpus_are_pinned(monkeypatch):
    # Only matches that pass the leading-coefficient test and both probe
    # points are built and trial-divided: 63 of the 50,267 that a residue
    # lookup alone would build (186 with the near probe alone).
    built = _count_built(monkeypatch)
    for f in _search_corpus():
        kronecker_factor(f, budget=10**9)
    assert len(built) == 63


def test_candidates_built_by_the_acceptance_sweeps_are_pinned(monkeypatch):
    # 100 sweep-acceptance calls: 129 candidates built, each of which
    # divides.  With the near probe alone, whose point is about 4 on this
    # box, 5,221 were built.
    built = _count_built(monkeypatch)
    rng = random.Random(9)
    for seed in [rng.getrandbits(32) for _ in range(100)]:
        sweep(5, 3, [2, 3], sample=100, seed=seed)
    assert len(built) == 129


def test_budget_exhausting_search_reports_the_same_spend(monkeypatch):
    # a 6 + 6 composite whose degree-6 search needs more than 10^7 units
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    f = _poly("(x^6-2x^5+3x^3+2x-2)(2x^6-2x^5-3x^3+3x^2-x-1)")
    with pytest.raises(OracleBudgetError, match="10000001 units exceed the cap of 10000000 "):
        kronecker_factor(f)


def _reference_rational_root_factor(f, budget):
    """The root search without the sieve on f(1) and f(-1): every candidate
    r/q is evaluated, one unit each, in the same order."""
    n = f.degree
    for q in _divisors(f.leading_coefficient):
        for mag in _divisors(f.constant_term):
            if math.gcd(mag, q) != 1:
                continue
            for r in (mag, -mag):
                budget.spend()
                if sum(c * r**i * q ** (n - i) for i, c in enumerate(f.coeffs)) == 0:
                    h = Polynomial((-r, q))
                    return h, exact_divide(f, h)
    return None


def _assert_same_outcomes_as_the_reference(monkeypatch, polys, cap, seed):
    """The same witness and units as the unscreened reference under cap, and
    the same budget message and units at a seeded cap inside that work."""
    rng = random.Random(seed)
    for f in polys:
        expected = _factor_outcome(monkeypatch, f, cap, reference=True)
        assert _factor_outcome(monkeypatch, f, cap, reference=False) == expected, str(f)
        units = expected[1]
        if units > 1:
            inside = rng.randrange(1, units)
            expected = _factor_outcome(monkeypatch, f, inside, reference=True)
            assert _factor_outcome(monkeypatch, f, inside, reference=False) == expected, (str(f), inside)
            assert expected[0].startswith("oracle out of budget"), str(f)


def test_the_screens_change_nothing_on_the_search_corpus(monkeypatch):
    # The root sieve, both probes and the split's cost model only skip
    # work that could not find a factor.
    _assert_same_outcomes_as_the_reference(monkeypatch, _search_corpus(), 10**9, 25)


def test_the_screens_change_nothing_on_the_degree_5_box(monkeypatch):
    # all 12,480 polynomials of degree 2-5 with |a_i| <= 2
    polys = list(exhaustive_polynomials(5, 2))
    assert len(polys) == 12_480
    _assert_same_outcomes_as_the_reference(monkeypatch, polys, 10**9, 26)


def test_the_screens_change_nothing_on_degree_10_to_12_products(monkeypatch):
    rng = random.Random(27)
    polys = []
    for i in range(24):
        n = 10 + i % 3
        d1 = rng.randint(2, n // 2)
        polys.append(_small_poly(rng, d1) * _small_poly(rng, n - d1))
    _assert_same_outcomes_as_the_reference(monkeypatch, polys, 10**6, 28)


def _lead_poly(rng, n, lead):
    return Polynomial(
        [rng.choice((-3, -2, -1, 1, 2, 3))] + [rng.randint(-3, 3) for _ in range(n - 1)] + [lead]
    )


def _composite_lead_searches():
    """(f, k) searches on seeded inputs of degree 4-8 whose leading
    coefficient has many divisors: 720720 (240) and 735134400 (1,344),
    three quarters of them products, all within the oracle's limits."""
    rng = random.Random(13)
    out = []
    for lead in (720720, 735134400):
        count = 0
        while count < 8:
            n = rng.randint(4, 8)
            if rng.random() < 0.25:
                f = _lead_poly(rng, n, lead)
            else:
                a, d1 = rng.choice(_divisors(lead)), rng.randint(2, n - 2)
                f = _lead_poly(rng, d1, a) * _lead_poly(rng, n - d1, lead // a)
            if max(map(abs, f.coeffs)) <= MAX_ORACLE_COEFF:
                count += 1
                out.extend((content_and_primitive(f)[1], k) for k in range(2, n // 2 + 1))
    return out


def _wide_product_searches():
    """k = 4-6 searches on seeded products of degree 8-12 with a factor of degree k."""
    rng = random.Random(14)
    out = []
    for n, k in ((8, 4), (9, 4), (10, 4), (10, 5), (11, 5), (12, 5), (12, 6), (12, 6)):
        out.append((_small_poly(rng, k) * _small_poly(rng, n - k), k))
    return out


def test_split_index_matches_the_per_candidate_walk_within_a_cap(monkeypatch):
    # Each search runs under a cap that the per-candidate walk can reach
    # quickly, and again with the cap at a random point inside it: the
    # same factor or the same error, and the same units, either way.
    lookups, splits = [], []
    real_matches, real_start = oracle._lead_matches, oracle._inner_start

    def matches(sums, partial, common, flead, scaled_leads):
        # one position list per matching sum, unmerged; merged, the positions
        # are those of every sum that passes the leading-coefficient test
        got = real_matches(sums, partial, common, flead, scaled_leads)
        leads = {s: (partial + s) // common for s in sums}
        merged = sorted(itertools.chain.from_iterable(got))
        assert merged == sorted(j for s, js in sums.items() if leads[s] and flead % leads[s] == 0 for j in js)
        lookups.append(len(sums) <= len(scaled_leads))
        return got

    def start(sizes, leads, common, targets):
        m = real_start(sizes, leads, common, targets)
        splits.append(len(sizes) - m)
        return m

    monkeypatch.setattr(oracle, "_lead_matches", matches)
    monkeypatch.setattr(oracle, "_inner_start", start)
    rng = random.Random(89)
    outcomes = []
    searches = _composite_lead_searches() + _wide_product_searches()
    rooted = [(f, k) for f, k in searches if _has_root_at_the_points(f, k)]
    for f, k in searches:
        # drawn for every search, so each root-free search keeps its caps
        caps = ((30_000, 0), (rng.randrange(30_000), rng.randrange(1000)))
        if (f, k) in rooted:
            # kronecker_factor removes every root first, so a root at the
            # points is a broken invariant, not an input to search
            with pytest.raises(InternalError, match=f"degree-{k} search of .* met an integer root"):
                oracle._factor_of_degree(f, k, _Budget(10**9))
            continue
        for cap, pre in caps:
            expected = _outcome(_reference_factor_of_degree, f, k, pre + cap, pre)
            assert _outcome(oracle._factor_of_degree, f, k, pre + cap, pre) == expected, (str(f), k)
            outcomes.append(type(expected[0]))
    assert (len(searches), len(rooted)) == (39, 3)
    # both key lists, both a one-point and a wider inner split, and both outcomes
    assert set(lookups) == {True, False}
    assert 1 in splits and max(splits) > 1
    assert {tuple, str} <= set(outcomes)


def test_the_split_keeps_its_index_within_the_bound():
    # leads and common of 1 put every sum in one residue class; 2 targets
    start = oracle._inner_start
    # 300^2 inner entries would be cheaper, but exceed _MAX_INNER_INDEX
    assert start([2, 300, 300, 300], [1] * 4, 1, 2) == 3
    assert start([2, 200, 200, 200], [1] * 4, 1, 2) == 2
    # the last point alone is always a choice, however many values it has,
    # and a small search indexes no more than that
    assert start([2, 3, 70_000], [1] * 3, 1, 2) == 2
    assert start([2, 2, 40], [1] * 3, 1, 2) == 2
    # each outer prefix costs _PREFIX_OVERHEAD entries more than the keys
    # it reads, so a small degree-2 search takes one index and no outer
    # loop: 12 + 16 for one index, against 2 * 12 + 8 with one outer point
    assert oracle._PREFIX_OVERHEAD == 8
    assert start([2, 4, 2], [-2, 1, 1], 2, 4) == 0


def test_budget_exhausting_search_builds_a_bounded_index(monkeypatch):
    # The FOUND 6 + 6 composite: its one degree-6 search indexes 46,080
    # inner combinations (the last three of its seven points), below the bound.
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    sizes = []
    real = oracle._inner_start

    def start(sizes_, leads, common, targets):
        m = real(sizes_, leads, common, targets)
        sizes.append((len(sizes_) - m, math.prod(sizes_[m:])))
        return m

    monkeypatch.setattr(oracle, "_inner_start", start)
    f = _poly("(x^6-2x^5+3x^3+2x-2)(2x^6-2x^5-3x^3+3x^2-x-1)")
    with pytest.raises(OracleBudgetError, match="10000001 units exceed the cap of 10000000 "):
        kronecker_factor(f)
    assert sizes == [(3, 46_080)]
    assert 46_080 <= oracle._MAX_INNER_INDEX


def test_a_factor_that_does_not_divide_is_an_internal_error(monkeypatch):
    # A search whose factor and cofactor do not multiply back to f
    h = _poly("x^2+x+1")
    monkeypatch.setattr(oracle, "_factor_of_degree", lambda f, k, budget: (h, h))
    with pytest.raises(WitnessIntegrityError, match=r"witness for x\^4\+4\*x\^2\+4 does not multiply back"):
        kronecker_factor(_poly("x^4+4x^2+4"))
    # A root that passes the evaluation test but fails its one division
    monkeypatch.setattr(oracle, "exact_divide", lambda f, g: None)
    with pytest.raises(InternalError, match=r"factor x-1 does not divide x\^2-1"):
        kronecker_factor(_poly("x^2-1"))


def test_the_fixed_points_serve_every_search():
    # a search at k <= MAX_ORACLE_DEGREE // 2 reads the first k + 1 points
    assert len(oracle._POINTS) == MAX_ORACLE_DEGREE // 2 + 1
    assert len(set(oracle._POINTS)) == len(oracle._POINTS)


def test_a_root_left_for_the_split_search_is_an_internal_error(monkeypatch):
    # With the root search patched to find nothing, x^4-1 reaches the
    # degree-2 search with its roots 1 and -1 still in it.
    monkeypatch.setattr(oracle, "_rational_root_factor", lambda f, budget: None)
    with pytest.raises(InternalError, match=r"the degree-2 search of x\^4-1 met an integer root"):
        kronecker_factor(_poly("x^4-1"))


# ---------------------------------------------------------------------------
# modular degree analysis


def _subset_sums(degrees):
    sums = {0}
    for e in degrees:
        sums |= {s + e for s in sums}
    return sums


def test_degree_analysis_keeps_every_true_factor_degree():
    rng = random.Random(1729)
    irreducible_proofs = 0
    for i in range(80):
        n = rng.randint(6, 10)
        if i % 2:
            m = rng.randint(1, n - 1)
            f = Polynomial(
                [rng.randint(-4, 4) for _ in range(m)] + [rng.choice([1, 2, -3])]
            ) * Polynomial(
                [rng.randint(-4, 4) for _ in range(n - m)] + [rng.choice([1, -1, 5])]
            )
        else:
            f = Polynomial(
                [rng.choice([-3, -1, 1, 2])]
                + [rng.randint(-9, 9) for _ in range(n - 1)]
                + [rng.choice([1, 2, 3, -6])]
            )
        _, prim = content_and_primitive(f)
        _, factors = _sympy_factors(prim)
        allowed = _allowed_factor_degrees(prim, _Budget(10**9))
        assert _subset_sums(len(cs) - 1 for cs in factors) <= allowed, str(f)
        irreducible_proofs += allowed == {0, prim.degree}
    assert irreducible_proofs > 0  # the analysis does prune


def test_degree_analysis_falls_back_without_a_usable_prime():
    f = _poly("(x^3+x+1)^2")
    assert list(_modular_factor_degrees(f, _Budget(10**9))) == []
    assert _allowed_factor_degrees(f, _Budget(10**9)) == frozenset(range(7))
    assert _factor_strings(kronecker_factor(f)) == ["x^3+x+1", "x^3+x+1"]


def test_degree_analysis_skips_primes_dividing_the_leading_coefficient():
    f = _poly("(30x^3+x+1)(x^3-x+7)")
    used = [q for q, _ in _modular_factor_degrees(f, _Budget(10**9))]
    assert used and not any(30 % q == 0 for q in used)
    assert {0, 3, 6} <= _allowed_factor_degrees(f, _Budget(10**9))
    assert kronecker_factor(f).factor_degrees == (3, 3)


def test_degree_analysis_proves_irreducibility_within_budget():
    f = _poly("x^10+x^3+x+3")
    assert _allowed_factor_degrees(f, _Budget(10**9)) == {0, 10}
    # the full Kronecker search spends 203,332 candidates on this input
    assert _factor_strings(kronecker_factor(f, budget=20000)) == ["x^10+x^3+x+3"]


def test_degree_analysis_uses_more_primes_from_degree_eight():
    # the first five usable primes leave {0, 4, 6, 10}; the sixth
    # (19: degrees 5, 5) proves irreducibility
    f = _poly("2x^10-2x^9+2x^8+3x^7+x^6-3x^5-3x^4+x^3+3x^2-9x-6")
    assert _allowed_factor_degrees(f, _Budget(10**9)) == {0, 10}
    assert kronecker_factor(f, budget=20000).factors == (f,)


def test_degree_analysis_is_charged_to_the_budget():
    meter = _Budget(10**9)
    _allowed_factor_degrees(_poly("x^6+2x^3+8"), meter)
    assert meter.spent > 0
    with pytest.raises(OracleBudgetError):
        kronecker_factor(_poly("x^6+2x^3+8"), budget=2)


# The one F_q reference of the degree analysis: textbook distinct-degree
# factorization (Knuth, TAOCP vol. 2, 4.6.2) on dense lists.  Every Euclid
# step builds the quotient and makes the divisor monic, x^q comes from
# list concatenation, each Frobenius row is a product divided through
# _reference_fq_divmod, and every step takes its product and its gcd.  It
# calls no oracle kernel.  The analysis must give the same (q, degrees)
# stream and charge the same units at the same points.


def _reference_fq_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _reference_fq_monic(a, q):
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def _reference_fq_divmod(a, m, q):
    rem = list(a)
    dm = len(m) - 1
    quot = [0] * max(len(a) - dm, 0)
    for t in range(len(a) - 1, dm - 1, -1):
        c = rem[t] % q
        if c:
            quot[t - dm] = c
            for j in range(dm):
                rem[t - dm + j] -= c * m[j]
    return quot, _reference_fq_trim([c % q for c in rem[:dm]])


def _reference_fq_gcd(a, b, q):
    while b:
        b = _reference_fq_monic(b, q)
        a, b = b, _reference_fq_divmod(a, b, q)[1]
    return _reference_fq_monic(a, q)


def _reference_fq_mulmod(a, b, m, q, meter):
    meter.spend()
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _reference_fq_divmod(prod, m, q)[1]


def _reference_frobenius_matrix(f, q, meter):
    n = len(f) - 1
    xq = [1]
    for _ in range(q):
        xq = [0] + xq
        if len(xq) > n:
            top = xq.pop()
            xq = [(c - top * fc) % q for c, fc in zip(xq, f)]
    xq = _reference_fq_trim(xq)
    meter.spend(2)
    rows = [[1], xq]
    while len(rows) < n:
        rows.append(_reference_fq_mulmod(rows[-1], xq, f, q, meter))
    return rows


def _reference_distinct_degrees(f, q, meter):
    rows = _reference_frobenius_matrix(f, q, meter)
    degrees = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        meter.spend(2)
        acc = [0] * len(rows)
        for c, row in zip(h, rows):
            if c:
                for j, r in enumerate(row):
                    acc[j] += c * r
        h = _reference_fq_trim([c % q for c in acc])
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] = (h_minus_x[1] - 1) % q
        g = _reference_fq_gcd(f, _reference_fq_trim(h_minus_x), q)
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            f = _reference_fq_divmod(f, g, q)[0]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def _reference_usable_primes(f, meter):
    """(q, monic f mod q) for each prime that keeps f's degree and leaves
    it squarefree, by gcd(f, f') over F_q; one unit per prime that keeps
    the degree."""
    for q in oracle._DEGREE_ANALYSIS_PRIMES:
        if f.leading_coefficient % q == 0:
            continue
        fq = _reference_fq_monic([c % q for c in f.coeffs], q)
        derivative = _reference_fq_trim([i * c % q for i, c in enumerate(fq)][1:])
        meter.spend()
        if len(_reference_fq_gcd(fq, derivative, q)) == 1:
            yield q, fq


def _reference_modular_factor_degrees(f, meter):
    for q, fq in _reference_usable_primes(f, meter):
        yield q, _reference_distinct_degrees(fq, q, meter)


class _SpendLog(_Budget):
    """A budget that records the amount of every spend call."""

    __slots__ = ("amounts",)

    def __init__(self, cap, spent=0):
        super().__init__(cap)
        self.spent = spent
        self.amounts = []

    def spend(self, amount=1):
        self.amounts.append(amount)
        super().spend(amount)


def _degree_analysis_corpus():
    """Seeded degree 6-12 inputs: random ones, products, inputs with a
    square factor, and leading coefficients divisible by some of the 15
    primes."""
    rng = random.Random(1511)
    leads = (1, -1, 2, 3, 6, -10, 30, 210, 2 * 47, -7 * 11 * 13, 17 * 19 * 23)
    out = []
    for i in range(160):
        n = rng.randint(6, 12)
        kind = i % 4
        if kind == 0:
            coeffs = [rng.choice((-3, -1, 1, 2))] + [rng.randint(-20, 20) for _ in range(n - 1)]
            f = Polynomial(coeffs + [rng.choice(leads)])
        elif kind == 1:
            m = rng.randint(1, n - 1)
            f = _small_poly(rng, m) * Polynomial(
                [rng.randint(-5, 5) for _ in range(n - m)] + [rng.choice(leads)]
            )
        elif kind == 2:
            m = rng.randint(1, n // 2)
            g = _small_poly(rng, m)
            rest = n - 2 * m
            f = g * g * (_small_poly(rng, rest) if rest else Polynomial([rng.choice(leads)]))
        else:
            f = _padic_poly(rng, n, rng.choice((2, 3)))
        out.append(f)
    return out


def _analysis_outcome(analysis, f, cap=10**9, spent=0):
    """The (q, degrees) stream of analysis(f), the amount of every spend
    and the budget message, if the cap stops it."""
    meter = _SpendLog(cap, spent)
    stream = []
    try:
        for item in analysis(f, meter):
            stream.append(item)
    except OracleBudgetError as exc:
        return stream, meter.amounts, str(exc)
    return stream, meter.amounts, None


def test_fq_kernels_match_the_reference_kernels():
    # the degree analysis corpus and 400 more seeded integer polynomials of
    # degree 6-12, at all 15 analysis primes
    polys = _degree_analysis_corpus()
    rng = random.Random(2717)
    for _ in range(400):
        n = rng.randint(6, 12)
        lead = rng.choice((1, 1, 1, -1, 2, 6))
        low = [rng.choice((-3, -1, 1, 2))] + [rng.randint(-30, 30) for _ in range(n - 1)]
        polys.append(Polynomial(low + [lead]))
    pairs = skipped_for_the_lead = skipped_as_square = 0
    degrees_seen = set()
    for f in polys:
        outcome = _analysis_outcome(_modular_factor_degrees, f)
        assert outcome == _analysis_outcome(_reference_modular_factor_degrees, f), str(f)
        used = [q for q, _ in outcome[0]]
        lead_ok = [q for q in oracle._DEGREE_ANALYSIS_PRIMES if f.leading_coefficient % q]
        skipped_for_the_lead += len(oracle._DEGREE_ANALYSIS_PRIMES) - len(lead_ok)
        skipped_as_square += len(lead_ok) - len(used)
        pairs += len(used)
        degrees_seen.add(f.degree)
    # the corpus reaches every branch and every degree from 6 to 12: of its
    # 8,400 (prime, input) pairs, 424 drop the degree, 1,219 leave f not
    # squarefree and 6,757 are usable
    assert (skipped_for_the_lead, skipped_as_square, pairs) == (424, 1_219, 6_757)
    assert degrees_seen == set(range(6, 13))


# The packed Frobenius kernel at the oracle's limits.  Its largest slot is
# a column of x^(iq) mod f: the sum over k < n of a residue (at most q - 1)
# times a shift-register slot (at most n (q - 1)^2, since each of the n
# steps a slot takes to reach the top adds at most (q - 1)^2).


def _slot_bound(n, q):
    return n * (q - 1) * n * (q - 1) ** 2


def _evaluation_tables():
    """Every (q, d) whose table the distinct-degree loop can build."""
    return sorted({(q, 1) for q in oracle._DEGREE_ANALYSIS_PRIMES} | oracle._EVALUATED_STEPS)


def test_packed_slots_fit_their_width_at_the_oracle_limits():
    q = max(oracle._DEGREE_ANALYSIS_PRIMES)
    assert oracle._SLOT_BITS == 8 * struct.calcsize("<I") == 32
    assert _slot_bound(MAX_ORACLE_DEGREE, q) < 2**oracle._SLOT_BITS
    # a full slot survives the unpack, lowest degree first
    full = 2**oracle._SLOT_BITS - 1
    packed = full << oracle._SLOT_BITS | 7
    assert oracle._fq_unpack(struct.Struct("<2I"), packed, 2**40) == [7, full]
    # a factor count's slot sums n + 1 residues times residues, and its
    # divisibility test needs that sum below 2^16, in a 32-bit slot that
    # holds the sum times a 16-bit multiplier
    assert oracle._EVALUATED_STEPS == {
        (2, 2), (3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (2, 3), (3, 3), (5, 3)
    }
    for q, d in _evaluation_tables():
        assert (MAX_ORACLE_DEGREE + 1) * (q - 1) ** 2 < 2**16
        rows, multiplier, low, bias, group, size = oracle._evaluation_table(q, d)
        assert size == (q if d == 1 else (q**d - q) // d)
        assert len(rows) == MAX_ORACLE_DEGREE + 1
        assert multiplier < 2**16 and group.bit_count() == size
        for row in rows:
            assert max(struct.unpack(f"<{d * size}I", row.to_bytes(4 * d * size, "little"))) < q
        # every coefficient at q - 1: the largest sum a slot can hold
        top = [q - 1] * (MAX_ORACLE_DEGREE + 1)
        assert oracle._factor_count(top, q, d) == _evaluated_factor_count(top, q, d), (q, d)
        # a count past the table's rows refuses
        with pytest.raises(InternalError, match=f"mod {q} at degree 13, past its table"):
            oracle._factor_count([1] * (MAX_ORACLE_DEGREE + 2), q, d)


def _monic_irreducibles(q, d):
    """The monic irreducible polynomials of degree d <= 3 over F_q, found
    by evaluation at every residue: of degree 2 or 3, those with no root."""
    return [
        [*low, 1]
        for low in itertools.product(range(q), repeat=d)
        if d == 1 or all(sum(c * a**i for i, c in enumerate([*low, 1])) % q for a in range(q))
    ]


def _evaluated_factor_count(f, q, d):
    """How many monic irreducible g of degree d divide f over F_q, by
    long division."""
    count = 0
    for g in _monic_irreducibles(q, d):
        rem = list(f)
        for t in range(len(rem) - 1, d - 1, -1):
            c = rem[t] % q
            for j in range(d + 1):
                rem[t - d + j] -= c * g[j]
        count += not any(c % q for c in rem[:d])
    return count


def test_the_evaluated_counts_match_long_division():
    # every table, the root counts at d = 1 included
    rng = random.Random(1970)
    for q, d in _evaluation_tables():
        irreducibles = _monic_irreducibles(q, d)
        for n in range(MAX_ORACLE_DEGREE + 1):
            for _ in range(6):
                f = [rng.randrange(q) for _ in range(n)] + [rng.randrange(1, q)]
                assert oracle._factor_count(f, q, d) == _evaluated_factor_count(f, q, d), (f, q, d)
        # a product of distinct irreducibles of degree d counts each of them,
        # and of linear ones, every one of its roots
        chosen = rng.sample(irreducibles, min(len(irreducibles), MAX_ORACLE_DEGREE // d))
        f = [1]
        for g in chosen:
            f = [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g)) % q for k in range(len(f) + d)]
        assert oracle._factor_count(f, q, d) == len(chosen), (q, d)


def test_analyze_builds_no_table_and_a_quintic_no_table_past_step_1(capsys):
    # A cold analyze never factors, and a quartic's or quintic's screen
    # counts roots only: neither pays for a table of degree 2 or 3.
    from newton_gauge import cli

    oracle._evaluation_table.cache_clear()
    for text, p in (("x^6+3*x^5-2*x+9", "3"), ("4*x^12-6*x^7+2*x^3+18", "2"), ("x^3+2", "5")):
        for extra in ([], ["--json"]):
            assert cli.main(["analyze", "--poly", text, "--prime", p, *extra]) == 0
    capsys.readouterr()
    assert oracle._evaluation_table.cache_info().currsize == 0
    rng = random.Random(1245)
    for _ in range(200):
        f = _small_poly(rng, rng.choice((4, 5)))
        if f.constant_term and f.leading_coefficient > 0:
            kronecker_factor(f)
    assert oracle._evaluation_table.cache_info().currsize > 0
    # had any table past step 1 been built, this would leave more than one
    # table per prime
    for q in oracle._DEGREE_ANALYSIS_PRIMES:
        oracle._evaluation_table(q, 1)
    assert oracle._evaluation_table.cache_info().currsize == len(oracle._DEGREE_ANALYSIS_PRIMES)


@pytest.mark.parametrize("q", [5, 11, 13])
def test_the_evaluated_steps_match_the_gcd_walk_at_the_largest_primes(monkeypatch, q):
    # The exhaustive F_2 .. F_7 runs never reach step 2 at q = 11 or 13,
    # the largest primes it evaluates at (55 and 78 orbits), nor step 3 at
    # q = 5 (40 orbits): seeded monic squarefree inputs of degree 6-12 do.
    monkeypatch.setattr(oracle, "_DEGREE_ANALYSIS_PRIMES", (q,))
    rng = random.Random(1894 + q)
    polys, reference = [], []
    while len(polys) < 300:
        f = Polynomial([rng.randrange(q) for _ in range(rng.randint(6, 12))] + [1])
        outcome = _analysis_outcome(_reference_modular_factor_degrees, f)
        if outcome[0]:  # f is squarefree mod q
            polys.append(f)
            reference.append(outcome)
    steps = collections.Counter()
    count = oracle._factor_count

    def counted(f, q, d):
        steps[d] += 1
        return count(f, q, d)

    monkeypatch.setattr(oracle, "_factor_count", counted)
    assert [_analysis_outcome(_modular_factor_degrees, f) for f in polys] == reference
    assert steps[1] == len(polys) and steps[2] > 100
    assert steps[3] > 20 if q == 5 else steps[3] == 0


@pytest.mark.parametrize("residue", [46, 1], ids=["f-all-q-1", "minus-f-all-q-1"])
def test_packed_kernel_at_its_bound_matches_the_reference(monkeypatch, residue):
    # n = 12, q = 47: every low coefficient of f, or of -f, is q - 1
    n, q = MAX_ORACLE_DEGREE, max(oracle._DEGREE_ANALYSIS_PRIMES)
    f = [residue] * n + [1]
    largest = []
    unpack = oracle._fq_unpack

    def watched(slots, packed, modulus):
        largest.append(max(slots.unpack(packed.to_bytes(slots.size, "little"))))
        return unpack(slots, packed, modulus)

    monkeypatch.setattr(oracle, "_fq_unpack", watched)
    meter, reference_meter = _SpendLog(10**9), _SpendLog(10**9)
    degrees = oracle._distinct_degrees(list(f), q, meter, None)
    assert degrees == _reference_distinct_degrees(list(f), q, reference_meter)
    assert meter.amounts == reference_meter.amounts
    assert sum(degrees) == n
    assert q * q < max(largest) <= _slot_bound(n, q)


def test_fq_kernels_run_out_of_budget_at_the_same_spend(monkeypatch):
    rng = random.Random(47)
    for f in _degree_analysis_corpus()[::4]:
        units = sum(_analysis_outcome(_reference_modular_factor_degrees, f)[1])
        for cap in {units - 1, rng.randrange(units)}:
            pre = rng.randrange(1000)
            expected = _analysis_outcome(_reference_modular_factor_degrees, f, pre + cap, pre)
            assert expected[2] is not None
            assert _analysis_outcome(_modular_factor_degrees, f, pre + cap, pre) == expected
    # and through the oracle: a cap inside the analysis of a primitive
    # degree-6+ input gives the same message as the reference kernels
    checked = 0
    for f in _degree_analysis_corpus()[:40]:
        prim = content_and_primitive(f)[1]
        if prim.leading_coefficient < 0 or prim.constant_term == 0:
            continue
        with monkeypatch.context() as m:
            m.setattr(oracle, "_modular_factor_degrees", _reference_modular_factor_degrees)
            meter = _Budget(10**9)
            _allowed_factor_degrees(prim, meter)
            cap = rng.randrange(1, meter.spent)
            with pytest.raises(OracleBudgetError) as old:
                kronecker_factor(prim, budget=cap)
        with pytest.raises(OracleBudgetError) as new:
            kronecker_factor(prim, budget=cap)
        assert str(new.value) == str(old.value)
        checked += 1
    assert checked > 20


def _counting(counts, key, fn):
    def call(*args):
        counts[key] += 1
        return fn(*args)

    return call


def _euclid_and_frobenius_counts(m):
    """A dict counting, while the monkeypatch m holds, the F_q gcds, the
    integer resultants, the root counts and the counts of factors of
    degree 2 or 3 evaluated, the Frobenius matrices built and the
    Frobenius products (every unpack, less the n - 1 a matrix takes)."""
    counts = {"gcd": 0, "resultant": 0, "roots": 0, "evaluated": 0, "matrix": 0, "frobenius": 0}
    matrix, factor_count = oracle._frobenius_matrix, oracle._factor_count

    def counted_matrix(f, q, slots):
        counts["matrix"] += 1
        counts["frobenius"] -= len(f) - 2
        return matrix(f, q, slots)

    def counted_factor_count(f, q, d):
        counts["roots" if d == 1 else "evaluated"] += 1
        return factor_count(f, q, d)

    m.setattr(oracle, "_frobenius_matrix", counted_matrix)
    m.setattr(oracle, "_factor_count", counted_factor_count)
    for key, name in (
        ("frobenius", "_fq_unpack"),
        ("gcd", "_fq_gcd_degree"),
        ("resultant", "_integer_resultant"),
    ):
        m.setattr(oracle, name, _counting(counts, key, getattr(oracle, name)))
    return counts


def _screen_fires_at(q, degrees):
    """Whether _no_quadratic_factor fires at q, given f's degrees mod q: where
    no subset sums to 2, and at q = 2, which has no parity, only at {1, 3}."""
    return 2 not in _subset_sums(degrees) and (q > 2 or sorted(degrees) == [1, 3])


@pytest.mark.parametrize(
    "q, degrees, pinned, screened",
    [
        (2, range(2, 11), (642, 2_044, 1_022, 1_938, 528, 2_226), (4, 15)),
        (3, range(2, 8), (0, 3_276, 2_184, 1_420, 0, 0), (144, 0)),
        (5, range(2, 6), (0, 3_900, 3_120, 0, 0, 0), (1_724, 0)),
        (7, range(2, 6), (0, 19_600, 16_800, 0, 0, 0), (8_848, 0)),
    ],
    ids=["F2", "F3", "F5", "F7"],
)
def test_the_parity_step_matches_the_gcd_walk_on_every_monic_polynomial(
    monkeypatch, q, degrees, pinned, screened
):
    # every monic polynomial of these degrees over F_q, as an integer
    # polynomial with coefficients 0..q-1 analysed at q alone, against the
    # textbook walk that takes every step's product and gcd
    monkeypatch.setattr(oracle, "_DEGREE_ANALYSIS_PRIMES", (q,))
    polys = [Polynomial([*low, 1]) for n in degrees for low in itertools.product(range(q), repeat=n)]
    reference = [_analysis_outcome(_reference_modular_factor_degrees, f) for f in polys]
    with monkeypatch.context() as m:
        counts = _euclid_and_frobenius_counts(m)
        assert [_analysis_outcome(_modular_factor_degrees, f) for f in polys] == reference
    # q^n - q^(n-1) of the monic polynomials of degree n >= 2 are squarefree
    squarefree = collections.Counter(f.degree for f, (stream, _, _) in zip(polys, reference) if stream)
    assert squarefree == {n: q**n - q ** (n - 1) for n in degrees}
    # (gcd, resultant, roots, evaluated, matrix, frobenius): one integer
    # resultant per input and one root count per squarefree one; only q = 2
    # and 3 reach a step d = 2 or 3 that no parity settles, evaluated in
    # _EVALUATED_STEPS, and only q = 2 a later step, with its matrix
    assert tuple(counts.values()) == pinned
    # the quadratic screen on every quartic and quintic, from the same
    # reference degrees: it never fires where a subset sums to 2, and for
    # odd q it fires wherever none does
    fired = missed = 0
    for f, (stream, _, _) in zip(polys, reference):
        if f.degree in (4, 5):
            fires = bool(stream) and _screen_fires_at(q, stream[0][1])
            assert oracle._no_quadratic_factor(f) == fires, str(f)
            fired += fires
            missed += bool(stream) and 2 not in _subset_sums(stream[0][1]) and not fires
    assert (fired, missed) == screened


def test_the_quadratic_screen_reads_the_first_five_usable_primes():
    # seeded integer quartics and quintics at all 15 analysis primes: the
    # screen fires exactly when one of the first five usable primes rules
    # out a quadratic factor, some of them only at the fourth or fifth
    rng = random.Random(1893)
    first = collections.Counter()
    for _ in range(600):
        f = _small_poly(rng, rng.choice((4, 5)))
        usable = itertools.islice(_reference_modular_factor_degrees(f, _Budget(10**9)), 5)
        at = next((i for i, (q, degrees) in enumerate(usable) if _screen_fires_at(q, degrees)), None)
        assert oracle._no_quadratic_factor(f) == (at is not None), str(f)
        first[at] += 1
    assert first == {None: 46, 0: 379, 1: 132, 2: 29, 3: 13, 4: 1}


def test_euclid_runs_and_frobenius_products_on_the_seeded_corpus_are_pinned(monkeypatch):
    # One integer resultant per analysed input (104) and per quartic or
    # quintic the quadratic screen reads (81); a root count per run (557)
    # and per prime the screen reads (143); 212 evaluated counts of steps 2
    # and 3 in _EVALUATED_STEPS; the parity step settles the last step, and
    # 199 runs build a matrix for another step.
    with monkeypatch.context() as m:
        counts = _euclid_and_frobenius_counts(m)
        units = sum(_metered_factor(monkeypatch, f, 10**9)[1] for f in _search_corpus())
    assert (units, counts) == (
        714_946,
        {"gcd": 223, "resultant": 185, "roots": 700, "evaluated": 212, "matrix": 199, "frobenius": 444},
    )


def _sylvester_rows(a, b):
    """The Sylvester matrix of a and b, lowest degree first, each of the
    degree its list gives (leading zeros allowed)."""
    m, k = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (k - 1 - i) for i in range(k)]
    return rows + [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]


def _exact_sylvester_determinant(a, b):
    """The Sylvester determinant of a and b over Z, by elimination over Q."""
    rows = [[Fraction(x) for x in row] for row in _sylvester_rows(a, b)]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return int(det)


def test_the_resultant_is_the_sylvester_determinant():
    rng = random.Random(1897)
    cases = collections.Counter()
    for _ in range(240):
        bound = rng.choice((3, 30, 10**9))
        m = rng.randint(1, 7)
        k = rng.choice((0, rng.randint(0, m)))
        a = [rng.randint(-bound, bound) for _ in range(m)] + [rng.choice((-3, -1, 1, 2, bound))]
        b = [rng.randint(-bound, bound) for _ in range(k)] + [rng.choice((-2, 1, 5, -bound))]
        if k and rng.random() < 0.3:
            # times x - root: a common root, so the resultant is 0
            root = rng.randint(-3, 3)
            a, b = ([x - root * y for x, y in zip([0, *c], [*c, 0])] for c in (a, b))
        res = oracle._integer_resultant(tuple(a), b)
        assert res == _exact_sylvester_determinant(a, b), (a, b)
        cases["zero" if res == 0 else "constant b" if len(b) == 1 else "full"] += 1
    assert min(cases.values()) > 20, cases
    # f against f', as the analysis calls it, at the oracle's limits
    for n in (2, 5, MAX_ORACLE_DEGREE):
        f = [rng.randint(-MAX_ORACLE_COEFF, MAX_ORACLE_COEFF) for _ in range(n)] + [MAX_ORACLE_COEFF]
        derivative = [i * c for i, c in enumerate(f)][1:]
        assert oracle._integer_resultant(tuple(f), derivative) == _exact_sylvester_determinant(f, derivative)
    # b = 0 shares every factor of a
    assert oracle._integer_resultant((1, 1), ()) == 0


def _usable_primes_corpus():
    """Seeded degree 2-12 inputs with |a_i| up to 10^9: random ones, g^2
    times another factor, g(x^q) for an analysis prime q, and leading
    coefficients that share the analysis primes."""
    rng = random.Random(1967)
    leads = (1, -1, 2, 6, 47, -7 * 11 * 13, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23)

    def draw(degree, bound, lead):
        return Polynomial([rng.randint(-bound, bound) for _ in range(degree)] + [lead])

    out = []
    for i in range(240):
        n = rng.randint(2, 12)
        bound = rng.choice((3, 30, 10**4, MAX_ORACLE_COEFF))
        lead = rng.choice((*leads, rng.randint(1, bound)))
        kind = i % 3
        if kind == 0:
            f = draw(n, bound, lead)
        elif kind == 1:
            m = rng.randint(1, n // 2)
            g = draw(m, min(bound, 10**4), rng.choice((1, -1, 2, 3)))
            f = g * g * draw(n - 2 * m, bound, lead)
        else:
            q = rng.choice([q for q in oracle._DEGREE_ANALYSIS_PRIMES if q <= n])
            g = draw(n // q, bound, lead)
            f = Polynomial([g.coeffs[i // q] if i % q == 0 else 0 for i in range(q * g.degree + 1)])
        out.append(f)
    return out


def test_usable_primes_match_a_squarefree_gcd_per_prime():
    cases = collections.Counter()
    for f in _usable_primes_corpus():
        stream, amounts, _ = _analysis_outcome(oracle._usable_primes, f)
        reference = _analysis_outcome(_reference_usable_primes, f)
        assert ([(q, fq) for q, fq, _ in stream], amounts, None) == reference, str(f)
        for q, fq, parity in stream:
            # Stickelberger: for odd q, the parity of the number of factors
            factors = len(_reference_distinct_degrees(fq, q, _Budget(10**9)))
            assert parity == (None if q == 2 else factors % 2), (str(f), q)
            cases["usable", q > 2] += 1
        used = {q for q, _, _ in stream}
        for q in oracle._DEGREE_ANALYSIS_PRIMES:
            if f.leading_coefficient % q == 0:
                cases["lead"] += 1
            elif q in used:
                # f' mod q loses its top term
                cases["usable, q | n"] += f.degree % q == 0
            else:
                cases["not squarefree"] += 1
                cases["f' = 0 mod q"] += not any(i * c % q for i, c in enumerate(f.coeffs))
    assert min(cases.values()) > 20, cases
    # 1,755 usable (prime, input) pairs, 1,720 of them at odd primes
    assert (cases["usable", False], cases["usable", True]) == (35, 1_720)


# ---------------------------------------------------------------------------
# certificate verification


def test_verify_irreducible_no_split():
    f = _poly("x^2+2")
    cert = analyze(AnalysisInput(f, 2)).certificate
    report = verify_certificate(f, 2, cert, kronecker_factor(f))
    assert report.passed
    assert report.bipartitions == ()
    assert report.no_split_clauses == ("Irreducible",)
    assert report.content_valuation == 0


def test_verify_content_carries_the_valuation():
    f = _poly("2x^2+6")
    cert = analyze(AnalysisInput(f, 2)).certificate
    assert cert.theorem == "Dumas-s0"
    report = verify_certificate(f, 2, cert, kronecker_factor(f))
    assert report.passed
    assert report.no_split_clauses == ("DegreeZeroFactor",)
    assert report.content_valuation == 1


def test_verify_split_against_degree_clause():
    f = _poly("x^4+4x^2+4")
    cert = analyze(AnalysisInput(f, 2)).certificate
    assert cert.theorem == "Dumas-s0" and cert.params.modulus == 2
    report = verify_certificate(f, 2, cert, kronecker_factor(f))
    assert report.passed
    assert report.bipartitions == (
        BipartitionCheck(degrees=(2, 2), satisfied=("FactorDegreeMultipleOf",)),
    )


def test_verify_alpha_split_clause():
    f = _poly("x^12+4x^4+16")
    cert = analyze(AnalysisInput(f, 2)).certificate
    assert cert.theorem == "T2"
    report = verify_certificate(f, 2, cert, kronecker_factor(f))
    assert report.passed
    (check,) = report.bipartitions
    assert check.degrees == (4, 8)
    assert check.satisfied == ("FactorDegreeMultipleOf", "AlphaSplit")


def test_verify_enumerates_multiset_bipartitions():
    f = _poly("(x-1)(x+1)(x-3)")
    cert = analyze(AnalysisInput(f, 3)).certificate
    assert cert.theorem == "T1" and cert.params.modulus == 1
    report = verify_certificate(f, 3, cert, kronecker_factor(f))
    assert report.passed
    assert len(report.bipartitions) == 3
    assert all(c.degrees == (1, 2) for c in report.bipartitions)
    assert all(c.satisfied for c in report.bipartitions)


def test_verify_failure_paths():
    f = _poly("x^2-1")
    witness = kronecker_factor(f)
    params = CriteriaParameters(n=2, s=1, c_s=1, c_n=1, d=1, u=1, modulus=1)
    strict = Certificate("T1", params, (FactorDegreeMultipleOf(5),))
    report = verify_certificate(f, 2, strict, witness)
    assert not report.passed
    assert report.bipartitions[0].satisfied == ()

    irred_only = Certificate("T1", params, (Irreducible(),))
    assert not verify_certificate(f, 2, irred_only, witness).passed

    none_cert = analyze(AnalysisInput(_poly("x^2+3x+9"), 3)).certificate
    with pytest.raises(ValueError, match="asserts nothing"):
        verify_certificate(f, 2, none_cert, witness)


def _reference_verify_certificate(f, p, cert, witness):
    """The verification before each clause decided what it accepts: the
    clauses are partitioned by type, and the satisfied kinds are listed
    DegreeZeroFactor first, then the degree clauses in certificate order.
    The degree clauses' own rule is asked through ``accepts``."""
    if witness.reconstruct() != f:
        raise WitnessIntegrityError(f"witness does not multiply back to {f}")
    if not cert.applies:
        raise ValueError("cannot verify a certificate that asserts nothing")
    content_val = p_adic_valuation(witness.content, p)
    factors = witness.factors
    if not factors:
        raise InternalError(f"the witness for {f} has no nonconstant factor")

    degree_clauses = [
        c for c in cert.clauses if isinstance(c, (FactorDegreeMultipleOf, AlphaSplit))
    ]
    has_irreducible = any(isinstance(c, Irreducible) for c in cert.clauses)
    has_degree_zero = any(isinstance(c, DegreeZeroFactor) for c in cert.clauses)
    content_split = has_degree_zero and content_val > 0

    checks = []
    all_ok = True
    for d1, d2 in oracle._bipartition_degrees(witness.factors):
        satisfied = []
        if content_split:
            satisfied.append(DegreeZeroFactor.kind)
        for clause in degree_clauses:
            if clause.accepts((d1, d2), False):
                satisfied.append(clause.kind)
        if not satisfied:
            all_ok = False
        checks.append(
            BipartitionCheck(degrees=(min(d1, d2), max(d1, d2)), satisfied=tuple(satisfied))
        )

    no_split = []
    if not checks:
        if has_irreducible and len(factors) == 1 and content_val == 0:
            no_split.append(Irreducible.kind)
        if content_split:
            no_split.append(DegreeZeroFactor.kind)
        all_ok = bool(no_split)

    return VerificationReport(
        passed=all_ok,
        content_valuation=content_val,
        factor_degrees=witness.factor_degrees,
        bipartitions=tuple(checks),
        no_split_clauses=tuple(no_split),
    )


def test_verify_matches_the_reference_on_the_acceptance_box():
    theorems, shapes = set(), set()
    for f in sampled_polynomials(5, 3, 400, seed=1401):
        witness = kronecker_factor(f)
        for p in (2, 3):
            cert = analyze(AnalysisInput(f, p)).certificate
            if not cert.applies:
                continue
            report = verify_certificate(f, p, cert, witness)
            assert report == _reference_verify_certificate(f, p, cert, witness), (str(f), p)
            theorems.add(cert.theorem)
            shapes.add((bool(report.bipartitions), report.content_valuation > 0))
    assert theorems == {"T1", "TA", "TB", "Dumas-s0"}  # T2 needs valuations above 1
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def _alpha_only_splits(report):
    return {b.degrees for b in report.bipartitions if b.satisfied == (AlphaSplit.kind,)}


def test_t2_with_modulus_two_accepts_odd_splits_by_alpha_split_alone():
    f = _poly("-4*x^8+63*x^4+16")
    cert = analyze(AnalysisInput(f, 2)).certificate
    assert cert.theorem == "T2"
    assert (cert.params.s, cert.params.d, cert.params.modulus, cert.params.u) == (4, 2, 2, 24)
    assert cert.clauses[-1] == AlphaSplit(2, 12)
    witness = kronecker_factor(f)
    assert witness.factor_degrees == (1, 1, 2, 2, 2)
    report = verify_certificate(f, 2, cert, witness)
    assert report.passed
    assert report == _reference_verify_certificate(f, 2, cert, witness)
    # odd splits: no factor degree is even, so only the alpha split holds
    assert _alpha_only_splits(report) == {(1, 7), (3, 5)}


def _t2_product(rng, p):
    """A seeded product whose polygon is a V: binomials x^k + u*p^j, whose
    edges fall, times one factor whose single edge rises by j over k with
    gcd(j, k) > 1 and whose interior points lie above that edge.  The
    rising edge's start is then the strict dominant index, with d > 1
    and u > d, so the certificate is T2 with modulus > 1."""

    def unit():
        return rng.choice([c for c in range(1 - p, p) if c])

    f = Polynomial.constant(1)
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(1, 2)
        f = f * Polynomial([unit() * p ** rng.randint(1, 2)] + [0] * (k - 1) + [1])
    j, k = rng.choice([(2, 4), (2, 6), (4, 6)])
    middle = [rng.choice([0, unit() * p ** (j * i // k + 1)]) for i in range(1, k)]
    return f * Polynomial([unit()] + middle + [unit() * p ** j])


def test_t2_on_seeded_products_accepts_splits_by_alpha_split_alone():
    rng = random.Random(1502)
    alpha_only = {2: 0, 3: 0}
    for i in range(40):
        p = (2, 3)[i % 2]
        f = _t2_product(rng, p)
        cert = analyze(AnalysisInput(f, p)).certificate
        assert cert.theorem == "T2" and cert.params.modulus > 1, (str(f), p)
        witness = kronecker_factor(f)
        report = verify_certificate(f, p, cert, witness)
        assert report.passed, (str(f), p)
        assert report == _reference_verify_certificate(f, p, cert, witness)
        alpha_only[p] += bool(_alpha_only_splits(report))
    assert min(alpha_only.values()) >= 1, alpha_only


def test_example2_family_sweep_verifies_t2():
    summary = sweep_family("example2", [3], [2, 3, 5])
    assert summary.passed
    assert summary.certificates["T2"] == summary.verified == 3
    assert summary.budget_errors == 0
    assert [row["modulus"] for row in summary.family_rows] == [4, 4, 4]


def test_the_p_power_box_of_degree_3_produces_every_tag():
    # Coefficients from {0, +-1, +-2, +-3, +-4, +-8, +-9} reach valuation 3
    # at p = 2 and 2 at p = 3, so T2 appears, unlike in the acceptance box.
    values = (0, 1, -1, 2, -2, 3, -3, 4, -4, 8, -8, 9, -9)
    summary = SweepSummary(corpus={})
    memo = criteria.AnalysisMemo()
    for a3, a0, a1, a2 in itertools.product([v for v in values if v > 0], values[1:], values, values):
        _sweep_entry(summary, Polynomial((a0, a1, a2, a3)), [2, 3], True, memo, oracle_budget)
    assert summary.total == 2 * 12_168
    assert summary.certificates == {
        "T1": 2_880, "TA": 1_600, "T2": 1_144, "TB": 7_544, "Dumas-s0": 1_952, "none": 9_216,
    }
    assert summary.verified == 15_120
    assert summary.spot_checks == 124
    assert summary.violations == []
    assert summary.budget_errors == 0


def test_a_seeded_p_power_sample_of_degree_4_to_6_produces_every_tag():
    # The same values as the degree-3 box, 3,000 seeded draws of degree
    # 4 + i mod 3 with a nonzero constant and a positive leading coefficient.
    values = (0, 1, -1, 2, -2, 3, -3, 4, -4, 8, -8, 9, -9)
    leads = [v for v in values if v > 0]
    rng = random.Random(5)
    summary = SweepSummary(corpus={})
    memo = criteria.AnalysisMemo()
    for i in range(3_000):
        a0 = rng.choice(values[1:])
        middle = [rng.choice(values) for _ in range(3 + i % 3)]
        f = Polynomial([a0, *middle, rng.choice(leads)])
        _sweep_entry(summary, f, [2, 3], True, memo, oracle_budget)
    assert summary.total == 2 * 3_000
    assert summary.certificates == {
        "T1": 217, "TA": 91, "T2": 311, "TB": 2_117, "Dumas-s0": 141, "none": 3_123,
    }
    assert summary.verified == 2_877
    assert summary.spot_checks == 25
    assert summary.violations == []
    assert summary.budget_errors == 0


def test_verify_matches_the_reference_on_hand_built_certificates():
    params = CriteriaParameters(n=2, s=1, c_s=1, c_n=1, d=1, u=1, modulus=1)
    cases = [
        # test_verify_failure_paths's certificates: one split, accepted by none
        ("x^2-1", (FactorDegreeMultipleOf(5),)),
        ("x^2-1", (Irreducible(),)),
        # a single factor: no split, and no clause that accepts none
        ("x^2+2", (FactorDegreeMultipleOf(5),)),
        ("x^2+2", (DegreeZeroFactor(),)),
    ]
    for text, clauses in cases:
        f = _poly(text)
        witness = kronecker_factor(f)
        cert = Certificate("T1", params, clauses)
        report = verify_certificate(f, 2, cert, witness)
        assert not report.passed
        assert report == _reference_verify_certificate(f, 2, cert, witness)


def test_verify_rejects_tampered_witness():
    f = _poly("x^2-1")
    bad = FactorizationWitness(sign=1, content=1, factors=(_poly("x+1"), _poly("x+1")))
    cert = analyze(AnalysisInput(f, 2)).certificate
    with pytest.raises(WitnessIntegrityError):
        verify_certificate(f, 2, cert, bad)


def test_witness_without_factors_is_an_internal_error():
    cert = analyze(AnalysisInput(_poly("x^2+2"), 2)).certificate
    empty = FactorizationWitness(1, 3, ())
    with pytest.raises(InternalError, match="no nonconstant factor"):
        verify_certificate(Polynomial.constant(3), 2, cert, empty)


def test_check_dumas_consistency():
    f = _poly("x^6+2x^3+8")
    pairs = ((0, 6), (3, 3))
    assert check_dumas_consistency(pairs, kronecker_factor(f)) == []
    fake = FactorizationWitness(1, 1, (_poly("x+1"), _poly("x^5+7")))
    assert check_dumas_consistency(pairs, fake) == [(1, 5)]


def test_spot_check_detects_wrong_factors():
    f = _poly("x^2-1")
    assert _spot_check(f, kronecker_factor(f), DEFAULT_BUDGET) == []
    wrong = FactorizationWitness(1, 1, (_poly("x+1"), _poly("x-1")))
    (violation,) = _spot_check(_poly("x^2+2x+1"), wrong, DEFAULT_BUDGET)
    assert violation.kind == "irreducibility-spot-check"
    assert violation.detail == {
        "polynomial": "x^2+2*x+1",
        "factors": ["x+1", "x-1"],
        "product": "x^2-1",
    }


def test_a_refactored_factor_that_splits_is_a_spot_check_violation(monkeypatch):
    f = _poly("x^4-1")
    witness = kronecker_factor(f)
    assert _factor_strings(witness) == ["x-1", "x+1", "x^2+1"]
    # the re-run of x^2+1 returns a split
    split = FactorizationWitness(1, 1, (_poly("x+1"), _poly("x+1")))
    monkeypatch.setattr(oracle, "kronecker_factor", lambda g, budget=None: split)
    (violation,) = _spot_check(f, witness, DEFAULT_BUDGET)
    assert violation.kind == "irreducibility-spot-check"
    assert violation.detail == {
        "polynomial": "x^4-1",
        "factors": ["x-1", "x+1", "x^2+1"],
        "factor": "x^2+1",
        "refactored": ["x+1", "x+1"],
    }


def test_the_spot_check_divides_nothing(monkeypatch):
    # The witness's product proves every sub-multiset divides f: the
    # 2^12 - 2 proper sub-multisets of 12 linear factors are not divided out.
    f = Polynomial.constant(1)
    for a in range(1, 7):
        f = f * _poly(f"x^2-{a * a}")
    witness = kronecker_factor(f)
    assert witness.factor_degrees == (1,) * 12
    calls = []
    real = oracle.exact_divide
    monkeypatch.setattr(oracle, "exact_divide", lambda f, g: calls.append(g) or real(f, g))
    assert _spot_check(f, witness, DEFAULT_BUDGET) == []
    assert calls == []


def test_the_trial_primes_are_the_primes_below_1000():
    assert oracle._TRIAL_PRIMES == tuple(sympy.primerange(1000))
    assert len(oracle._TRIAL_PRIMES) == 168


def test_the_spot_check_refactors_each_distinct_factor_once(monkeypatch):
    f = _poly("(x^2+1)^2*(x^2+2)")
    witness = kronecker_factor(f)
    assert _factor_strings(witness) == ["x^2+1", "x^2+1", "x^2+2"]
    refactored = []
    real = oracle.kronecker_factor
    monkeypatch.setattr(
        oracle, "kronecker_factor", lambda g, budget=None: refactored.append(str(g)) or real(g, budget)
    )
    assert _spot_check(f, witness, DEFAULT_BUDGET) == []
    assert refactored == ["x^2+1", "x^2+2"]


def test_a_spot_check_out_of_budget_counts_as_a_budget_error(monkeypatch):
    # f factors in 373 units, but re-factoring its degree-7 factor takes
    # 5,442; the entry is put in the spot-checked slice by hand.
    monkeypatch.setenv(BUDGET_ENV_VAR, "3000")
    monkeypatch.setattr(sweeps, "zlib", types.SimpleNamespace(crc32=lambda data: 0))
    f = _poly("72*x^9-18*x^8+3*x^7-174*x^6+6*x^5+37*x^4+29*x^3+79*x^2-49*x-18")
    assert kronecker_factor(f).factor_degrees == (2, 7)
    summary = SweepSummary(corpus={})
    _sweep_entry(summary, f, [2, 3], True, criteria.AnalysisMemo(), oracle_budget)
    assert summary.certificates["TB"] == 2
    assert (summary.verified, summary.spot_checks, summary.budget_errors) == (2, 0, 1)
    assert summary.violations == []


# ---------------------------------------------------------------------------
# corpora and sweeps


def test_exhaustive_polynomials_enumeration():
    polys = list(exhaustive_polynomials(2, 1))
    assert len(polys) == 12
    assert polys[0] == Polynomial((-1, -1, -1))
    assert polys[-1] == Polynomial((1, 1, 1))
    assert len(set(polys)) == 12
    assert all(p.degree == 2 and p[0] != 0 for p in polys)

    polys = list(exhaustive_polynomials(3, 1))
    assert len(polys) == 12 + 36

    counts = [
        sum(1 for _ in exhaustive_polynomials(n, 3, min_degree=n)) for n in (2, 3)
    ]
    assert counts == [252, 1764]  # 36 * 7^(n-1)


def test_sampled_polynomials_deterministic():
    a = sampled_polynomials(5, 3, 50, seed=11)
    b = sampled_polynomials(5, 3, 50, seed=11)
    c = sampled_polynomials(5, 3, 50, seed=12)
    assert a == b
    assert a != c
    assert len(a) == 50
    assert all(2 <= f.degree <= 5 and f[0] != 0 for f in a)


def test_mini_sweep_is_clean():
    summary = sweep(3, 2, [2, 3])
    assert summary.total == 960  # (4*5*4 + 4*25*4) polynomials, two primes
    assert summary.passed
    assert summary.violations == []
    assert summary.verified > 0
    assert sum(summary.certificates.values()) == summary.total
    assert summary.certificates["none"] > 0
    assert summary.budget_errors == 0
    assert summary.spot_checks == 3  # once per factored polynomial, not per prime
    assert summary.corpus["mode"] == "exhaustive"


def test_sweep_without_verification():
    summary = sweep(3, 2, [2], verify=False)
    assert summary.verified == 0
    assert summary.budget_errors == 0
    assert summary.passed


def test_sweep_sampled_counts_budget_errors(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "2")
    summary = sweep(4, 3, [2], sample=60, seed=9)
    assert summary.corpus["mode"] == "sample"
    assert summary.total == 60
    # tiny budget: most factorizations die, but that is not a violation
    assert summary.budget_errors > 0
    assert summary.passed


def _count_budget_reads(monkeypatch):
    """Two lists: per oracle_budget call, how many kronecker_factor calls
    came before it; and the polynomials factored."""
    reads, factored = [], []
    real_budget, real_factor = oracle.oracle_budget, oracle.kronecker_factor
    monkeypatch.setattr(oracle, "oracle_budget", lambda: reads.append(len(factored)) or real_budget())
    monkeypatch.setattr(oracle, "kronecker_factor", lambda f, *a: factored.append(f) or real_factor(f, *a))
    return reads, factored


def test_a_sweep_reads_the_budget_once(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "5000")
    reads, factored = _count_budget_reads(monkeypatch)
    summary = sweep(5, 3, [2, 3], sample=200, seed=4)
    assert summary.verified > 100 and summary.spot_checks > 0
    assert reads == [0]
    del reads[:], factored[:]
    summary = sweep_family("example1", [5, 6], [2, 3])
    assert summary.verified > 0
    assert reads == [0]


def test_a_sweep_with_no_certificate_never_reads_the_budget(monkeypatch):
    # coefficients in {-1, 0, 1} are units at every prime, so only a
    # binomial gets a certificate, and this sample draws none
    monkeypatch.setenv(BUDGET_ENV_VAR, "abc")
    reads, factored = _count_budget_reads(monkeypatch)
    summary = sweep(5, 1, [2, 3], sample=20, seed=9)
    assert summary.certificates["none"] == summary.total == 40
    assert reads == factored == []


def test_a_malformed_budget_fails_a_verifying_sweep_at_its_first_oracle_call(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "abc")
    with pytest.raises(InvalidInputError) as expected:
        oracle_budget()
    assert sweep(5, 3, [2, 3], sample=50, seed=4, verify=False).passed
    assert sweep_family("example2", [2, 3], [2, 3], verify=False).passed
    analyzed = []
    real_analyze = criteria.analyze
    monkeypatch.setattr(criteria, "analyze", lambda *a: analyzed.append(real_analyze(*a)) or analyzed[-1])
    reads, factored = _count_budget_reads(monkeypatch)
    with pytest.raises(InvalidInputError) as raised:
        sweep(5, 3, [2, 3], sample=50, seed=4)
    assert str(raised.value) == str(expected.value)
    assert reads == [0] and factored == []
    # the read came with the first analysis whose certificate applies
    assert [a.certificate.applies for a in analyzed].index(True) == len(analyzed) - 1 > 0


def test_sweep_rejects_empty_corpus_arguments():
    with pytest.raises(InvalidInputError, match="min_degree"):
        sweep(3, 2, [2], min_degree=4)
    with pytest.raises(InvalidInputError, match="min_degree must be at least 2"):
        sweep(3, 2, [2], min_degree=0)
    with pytest.raises(InvalidInputError, match="coeff_bound"):
        sweep(3, 0, [2])
    with pytest.raises(InvalidInputError, match="sample"):
        sweep(3, 2, [2], sample=0)
    assert sweep(3, 1, [2], min_degree=3, sample=1).total == 1


def test_a_library_sweep_refuses_a_seed_without_a_sample():
    # An exhaustive corpus has no seed to record, so a given one is refused
    # rather than ignored, even at its default value.
    for seed in (5, 0):
        with pytest.raises(InvalidInputError, match="seed is used only with a sample") as info:
            sweep(3, 1, [2], seed=seed)
        assert info.value.arguments == ("seed",)
    assert "seed" not in sweep(3, 1, [2]).corpus
    assert sweep(3, 1, [2], sample=2).corpus["seed"] == 0
    assert sweep(3, 1, [2], sample=2, seed=5).corpus["seed"] == 5


def test_sweep_rejects_an_oversized_exhaustive_corpus():
    from newton_gauge.sweeps import MAX_EXHAUSTIVE_POLYNOMIALS, _capped_corpus_size

    for args in ((2, 1, 2), (4, 2, 3), (4, 3, 2), (3, 3, 3)):
        assert _capped_corpus_size(*args) == sum(1 for _ in exhaustive_polynomials(*args))
    # The acceptance corpus: degrees 2-5, |a_i| <= 3.
    assert _capped_corpus_size(5, 3, 2) == 100_800 <= MAX_EXHAUSTIVE_POLYNOMIALS
    oversized = ((7, 3, 2), (10**9, 1, 2), (10**9, 1, 10**9), (3, 10**6, 2))
    for max_degree, coeff_bound, min_degree in oversized:
        assert _capped_corpus_size(max_degree, coeff_bound, min_degree) == MAX_EXHAUSTIVE_POLYNOMIALS + 1
        with pytest.raises(InvalidInputError, match="use --sample"):
            sweep(max_degree, coeff_bound, [2], min_degree=min_degree, verify=False)
    assert sweep(6, 3, [2], sample=3, verify=False).total == 3


def test_a_sample_past_the_parsers_degree_limit_is_refused(monkeypatch):
    from newton_gauge.polynomial import MAX_PARSED_EXPONENT

    def draw(*args):
        raise AssertionError("a refused sample must not be drawn")

    # Drawing one polynomial of degree 10^9 would take hours and hundreds of GB.
    monkeypatch.setattr(sweeps, "sampled_polynomials", draw)
    for min_degree, max_degree in ((2, MAX_PARSED_EXPONENT + 1), (10**9, 10**9)):
        with pytest.raises(InvalidInputError, match="max_degree must not exceed 1000000") as info:
            sweep(max_degree, 3, [2], min_degree=min_degree, sample=1)
        assert info.value.arguments == ("max_degree",)
    # At the limit itself the sample is drawn; draw none, so nothing is built.
    monkeypatch.setattr(sweeps, "sampled_polynomials", lambda *args: [])
    assert sweep(MAX_PARSED_EXPONENT, 3, [2], sample=1).total == 0


# ---------------------------------------------------------------------------
# divisor enumeration


def test_divisors_match_sympy_on_a_seeded_set():
    rng = random.Random(11)
    values = [rng.randint(1, 10**4) for _ in range(400)]
    values += [rng.randint(1, 10**9) for _ in range(200)]
    values += [rng.randint(1, 10**6) * rng.randint(1, 10**12) for _ in range(50)]
    values += [rng.randint(1, 10**18) for _ in range(30)]
    for n in values:
        assert _divisors(n) == tuple(sympy.divisors(n)), n
        assert _divisors(-n) == _divisors(n), n


def test_divisors_edge_cases():
    assert _divisors(1) == _divisors(-1) == (1,)
    assert _divisors(0) == ()
    for q in (2, 3, 5, 997, 1009):
        assert _divisors(q) == _divisors(-q) == (1, q)
    assert _divisors(-12) == (1, 2, 3, 4, 6, 12)
    assert _divisors(1009**2) == (1, 1009, 1009**2)
    assert _divisors(2**61 - 1) == (1, 2**61 - 1)
    assert _divisors(2**62) == tuple(2**i for i in range(63))
    assert _divisors(3**40) == tuple(3**i for i in range(41))
    for n in (
        (2**31 - 1) * (2**32 - 5),
        999999937 * 999999929,
        999999937**2,
        3825123056546413051,  # a strong pseudoprime to the bases 2..31
    ):
        assert _divisors(n) == tuple(sympy.divisors(n)), n
        assert _divisors(-n) == _divisors(n), n


def test_divisors_refuse_a_cofactor_past_the_exact_prime_test():
    # Two primes just above 2^83 with no factor below the trial bound.
    p, q = sympy.nextprime(2**83), sympy.nextprime(2**84)
    with pytest.raises(RuntimeError, match="Miller-Rabin") as info:
        _divisors(int(p) * int(q))
    # not reported as bad input by the CLI
    assert not isinstance(info.value, ValueError)


# A verified sweep entry with content and two factors: 2(x+1)(x^3+x^2-x+3).
_BUNDLE_POLY = "2*x^4+4*x^3+4*x+6"
_BUNDLE_BASE = {
    "polynomial": "2*x^4+4*x^3+4*x+6",
    "prime": 2,
    "certificate": {
        "theorem": "Dumas-s0",
        "theorem_a": False,
        "theorem_b": False,
        "parameters": {"n": 4, "s": 0, "c_s": 0, "c_n": 0, "d": 4, "u": 0, "modulus": 1},
        "clauses": [
            {"kind": "Irreducible"},
            {"kind": "DegreeZeroFactor"},
            {"kind": "FactorDegreeMultipleOf", "modulus": 1},
        ],
        "notes": [],
    },
    "witness": {"sign": 1, "content": 2, "factors": ["x+1", "x^3+x^2-x+3"]},
}


def _entry_violations():
    summary = SweepSummary(corpus={})
    _sweep_entry(summary, _poly(_BUNDLE_POLY), [2], True, criteria.AnalysisMemo(), oracle_budget)
    assert summary.verified == 1
    return summary.violations


def _assert_bundle(violations, kind, extra):
    expected = {**_BUNDLE_BASE, **extra}
    assert violations == [Violation(kind, expected)]
    assert list(violations[0].detail) == list(expected)


def test_sweep_entry_certificate_violation_bundle(monkeypatch):
    failed = VerificationReport(
        passed=False,
        content_valuation=1,
        factor_degrees=(1, 3),
        bipartitions=(BipartitionCheck((1, 3), ()),),
        no_split_clauses=(),
    )
    monkeypatch.setattr(oracle, "verify_certificate", lambda *args: failed)
    _assert_bundle(_entry_violations(), "certificate", {"failed_bipartitions": [[1, 3]]})


def test_a_corpus_bundle_quotes_the_reports_certificate_and_witness(monkeypatch):
    monkeypatch.setattr(newton, "newton_index", lambda g, p: (7, 2))
    (violation,) = _entry_violations()
    monkeypatch.undo()
    f = _poly(_BUNDLE_POLY)
    cert = analyze(AnalysisInput(f, 2)).certificate
    witness = kronecker_factor(f)
    verification = report.verification_dict(witness, verify_certificate(f, 2, cert, witness))
    assert violation.detail["certificate"] == report.certificate_dict(cert)
    assert violation.detail["witness"] == verification["witness"]


def test_sweep_entry_dumas_violation_bundle(monkeypatch):
    monkeypatch.setattr(oracle, "check_dumas_consistency", lambda *args: [(1, 3)])
    _assert_bundle(
        _entry_violations(),
        "dumas",
        {"missing_pairs": [[1, 3]], "allowed": [[0, 4], [1, 3], [2, 2]]},
    )


def test_sweep_entry_index_violation_bundle(monkeypatch):
    monkeypatch.setattr(newton, "newton_index", lambda g, p: (7, 2))
    _assert_bundle(
        _entry_violations(),
        "index-multiplicativity",
        {"from_factors": "7/2", "direct": "0"},
    )


def test_sweep_entry_builds_no_bundle_when_it_passes(monkeypatch):
    def refuse(value):
        raise AssertionError("bundle built for a passing entry")

    monkeypatch.setattr(report, "certificate_dict", refuse)
    monkeypatch.setattr(report, "witness_dict", refuse)
    assert _entry_violations() == []


def test_sweep_entry_enumerates_the_bipartitions_once(monkeypatch):
    enumerations, checks = [], []
    real = oracle._bipartition_degrees
    monkeypatch.setattr(
        oracle, "_bipartition_degrees", lambda factors: enumerations.append(factors) or real(factors)
    )
    for name in ("verify_certificate", "check_dumas_consistency"):
        fn = getattr(oracle, name)
        monkeypatch.setattr(
            oracle, name, lambda *args, fn=fn, name=name: checks.append(name) or fn(*args)
        )
    summary = SweepSummary(corpus={})
    memo = criteria.AnalysisMemo()
    # (x^2+30)(x^3+30x+30) and (x^2+30)(x+30): TA at p = 2, 3 and 5
    for text in ("x^5+60*x^3+30*x^2+900*x+900", "x^3+30*x^2+30*x+900"):
        del enumerations[:], checks[:]
        _sweep_entry(summary, _poly(text), [2, 3, 5], True, memo, oracle_budget)
        assert len(enumerations) == 1
        assert sorted(checks) == ["check_dumas_consistency"] * 3 + ["verify_certificate"] * 3
    assert summary.verified == 6 and summary.violations == []


def test_sweep_entry_multiplies_each_witness_back_once(monkeypatch):
    products = []
    real = FactorizationWitness.reconstruct
    monkeypatch.setattr(FactorizationWitness, "reconstruct", lambda w: products.append(w) or real(w))
    summary = SweepSummary(corpus={})
    memo = criteria.AnalysisMemo()
    for text in ("x^5+60*x^3+30*x^2+900*x+900", "x^3+30*x^2+30*x+900"):
        del products[:]
        _sweep_entry(summary, _poly(text), [2, 3, 5], True, memo, oracle_budget)
        assert len(products) == 1
    assert summary.verified == 6 and summary.violations == []


def test_witness_pairs_stay_out_of_the_value_contract():
    f = _poly("x^3+30*x^2+30*x+900")
    witness = kronecker_factor(f)
    fresh = FactorizationWitness(witness.sign, witness.content, witness.factors)
    assert witness._degree_pairs == fresh._degree_pairs == ((1, 2),)
    assert witness._product == fresh._product == f
    assert witness == fresh and hash(witness) == hash(fresh)
    assert repr(witness) == repr(fresh)
    copy = pickle.loads(pickle.dumps(witness))
    assert copy == fresh
    assert (copy._product, copy._degree_pairs) == (f, ((1, 2),))


def _tampered_analysis(text, clauses_of):
    """Rebuild a p = 2 analysis, which built untampered, with its
    certificate's clauses replaced."""
    analysis = analyze(AnalysisInput(_poly(text), 2))
    cert = analysis.certificate
    tampered = Certificate(cert.theorem, cert.params, clauses_of(cert), cert.notes)
    return Analysis(analysis.input, analysis.table, analysis.polygon, tampered, analysis.dumas_pairs)


_T2_PARAMS = "{'n': 6, 's': 2, 'c_s': -2, 'c_n': -4, 'd': 2, 'u': 4, 'modulus': 2}"


@pytest.mark.parametrize(
    "text, clauses_of, message",
    [
        # T2, d = 2, u/d = 2, modulus 2: the split (1, 5) needs a1 = a2 = 1
        (
            "x^6+4*x^2+16",
            lambda cert: cert.clauses[:-1] + (AlphaSplit(2, 1),),
            f"the T2 certificate with parameters {_T2_PARAMS} refuses the split (1, 5),"
            " which the polygon allows",
        ),
        (
            "x^6+4*x^2+16",
            lambda cert: cert.clauses[:-1],
            f"the T2 certificate with parameters {_T2_PARAMS} refuses the split (1, 5),"
            " which the polygon allows",
        ),
        # TA, modulus 2: the split (1, 2) is allowed by the multiple of 2 alone
        (
            "x^3+2*x+4",
            lambda cert: cert.clauses[:-1] + (FactorDegreeMultipleOf(3),),
            "the TA certificate with parameters {'n': 3, 's': 1, 'c_s': -1, 'c_n': -2,"
            " 'd': 1, 'u': 1, 'modulus': 2} refuses the split (1, 2), which the polygon allows",
        ),
    ],
    ids=["alpha-split-total-minus-1", "alpha-split-dropped", "multiple-of-modulus-plus-1"],
)
def test_a_certificate_that_refuses_a_polygon_split_is_an_internal_error(
    monkeypatch, text, clauses_of, message
):
    def refuse(poly):
        raise AssertionError("the polynomial's text was built")

    # The message names the tag, the parameters and the pair, never the
    # polynomial, whose text can pass Python's int-to-str limit.
    monkeypatch.setattr(Polynomial, "__str__", refuse)
    with pytest.raises(InternalError) as raised:
        _tampered_analysis(text, clauses_of)
    assert str(raised.value) == message


# example1(5, 2, 1, 1, 1, 1) = 512*x^5+512*x^2+2*x+1, the one instance of its cell.
_FAMILY_INSTANCE = {"family": "example1", "parameter": 5, "prime": 2, "instance": 0}


def _family_bundle(**changes):
    """Family violations of example1(5, 2, 1, 1, 1, 1) against an altered closed form."""
    analysis = analyze(AnalysisInput(families.example1_polynomial(5, 2, 1, 1, 1, 1), 2))
    expected = {**families.example1_expected(5), **changes}
    return sweeps._family_violations(analysis, expected, _FAMILY_INSTANCE)


_FAMILY_EXPECTED = {
    "s": 1, "c_s": 8, "c_n": 9, "d": 4, "u": 4, "modulus": 1,
    "theorem": "T1", "m_s": "2", "m_0": "9/5", "m_2": "0",
}
_FAMILY_CERTIFICATE = {
    "theorem": "T1",
    "theorem_a": False,
    "theorem_b": False,
    "parameters": {"n": 5, "s": 1, "c_s": 8, "c_n": 9, "d": 4, "u": 4, "modulus": 1},
    "clauses": [
        {"kind": "Irreducible"},
        {"kind": "DegreeZeroFactor"},
        {"kind": "FactorDegreeMultipleOf", "modulus": 1},
    ],
    "notes": [],
}


@pytest.mark.parametrize(
    "changes, extra",
    [
        ({"theorem": "T2"}, {"actual": _FAMILY_CERTIFICATE}),
        ({"u": 5}, {"actual": _FAMILY_CERTIFICATE}),
        ({"m_0": (1, 1)}, {"slope_index": 0, "actual_slope": "9/5"}),
        ({"m_s": (-3, 2)}, {"slope_index": 1, "actual_slope": "2"}),
    ],
)
def test_family_violation_bundle(changes, extra):
    # Closed-form ints are written as ints, (rise, width) slopes as their Fraction's text.
    written = {k: str(Fraction(*v)) if isinstance(v, tuple) else v for k, v in changes.items()}
    expected = {**_FAMILY_INSTANCE, "expected": {**_FAMILY_EXPECTED, **written}, **extra}
    violations = _family_bundle(**changes)
    assert violations == [Violation("family-parameters", expected)]
    assert list(violations[0].detail) == list(expected)


def test_family_entry_builds_no_bundle_when_it_passes(monkeypatch):
    def refuse(poly):
        raise AssertionError("bundle built for a passing family entry")

    monkeypatch.setattr(Polynomial, "__str__", refuse)
    assert _family_bundle() == []
    assert sweep_family("example1", [5, 6], [2, 3], verify=False).passed
    assert sweep_family("example2", [2, 3], [2, 3], verify=False).passed


def test_a_failing_family_entry_never_prints_its_instance(monkeypatch):
    def refuse(poly):
        raise AssertionError("a family instance was printed")

    monkeypatch.setattr(Polynomial, "__str__", refuse)
    assert len(_family_bundle(u=5)) == len(_family_bundle(m_s=(-3, 2))) == 1
    for name in ("example1_expected", "example2_expected"):
        real = getattr(families, name)
        monkeypatch.setattr(families, name, lambda value, real=real: {**real(value), "u": 0})
    summary = sweep_family("example1", [5, 6], [2, 3], verify=False)
    assert len(summary.violations) == summary.total == 2 * (1 + 16)
    assert [v.detail["instance"] for v in summary.violations[-16:]] == list(range(16))
    summary = sweep_family("example2", [2, 3], [2, 3], verify=False)
    assert len(summary.violations) == summary.total == 4
    assert {v.detail["instance"] for v in summary.violations} == {0}


def test_a_family_bundle_names_the_instance_it_was_built_for(monkeypatch):
    real = families.example1_expected
    monkeypatch.setattr(families, "example1_expected", lambda n: {**real(n), "u": 0})
    summary = sweep_family("example1", [6], [3], verify=False)
    for violation in summary.violations:
        detail = violation.detail
        instances = families.example1_instances(detail["parameter"], detail["prime"])
        f = next(itertools.islice(instances, detail["instance"], None))
        a = [(detail["instance"] // 2**k) % 2 + 1 for k in (3, 2, 1, 0)]
        assert f == families.example1_polynomial(6, 3, *a)


@pytest.mark.parametrize(
    "family, value, prime, actual_u",
    [
        # top coefficients of 2^19738, about 5,940 digits
        ("example1", 142, 2, 141),
        # a constant term of p^1000, about 19,270 digits
        ("example2", 999, 18446744073709551557, 999 * 999 - 1),
    ],
)
def test_a_family_violation_past_the_int_str_limit_is_recorded(
    monkeypatch, family, value, prime, actual_u
):
    # str() of these instances passes Python's 4,300-digit int-to-str limit.
    name = f"{family}_expected"
    real = getattr(families, name)
    monkeypatch.setattr(families, name, lambda v: {**real(v), "u": 0})
    summary = sweep_family(family, [value], [prime], verify=False)
    (violation,) = summary.violations
    assert violation.kind == "family-parameters"
    assert {k: violation.detail[k] for k in _FAMILY_INSTANCE} == {
        "family": family, "parameter": value, "prime": prime, "instance": 0,
    }
    assert violation.detail["expected"]["u"] == 0
    assert violation.detail["actual"]["parameters"]["u"] == actual_u
    text = json.dumps(sweep_report(summary))
    assert json.loads(text)["violations"][0] == {"kind": "family-parameters", **violation.detail}


def test_sweep_family_past_the_int_str_limit():
    # example1's top coefficients are 2^16509, about 4,970 digits: past
    # Python's 4,300-digit limit on int-to-str conversion
    summary = sweep_family("example1", [130], [2], verify=False)
    assert summary.passed and summary.total == 1
    summary = sweep_family("example1", [130], [2])
    assert summary.passed and summary.budget_errors == 1


def test_sweep_family_refuses_a_value_past_its_bound_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(sweeps, "_sweep_entry", lambda summary, f, *args, **kwargs: built.append(f))
    # example2 has degree d(d + 1): 999,000 at d = 999, past 10^6 at d = 1000
    with pytest.raises(InvalidInputError, match="d = 1000 gives degree 1001000") as info:
        sweep_family("example2", [2, 1000], [2], verify=False)
    assert info.value.arguments == ("d",)
    # example1's top coefficient at p = 2 is 2^(n(n-3)-1): 19,738 bits at
    # n = 142, 20,020 at n = 143
    with pytest.raises(InvalidInputError, match="n = 143 at p = 2 .* more than 20000 bits") as info:
        sweep_family("example1", [5, 143], [2], verify=False)
    assert info.value.arguments == ("n", "primes")
    # the bound is decided without building 31^(10^12 - 3*10^6 - 1)
    with pytest.raises(InvalidInputError, match="n = 1000000 at p = 31 "):
        sweep_family("example1", [10**6], [31], verify=False)
    with pytest.raises(InvalidInputError, match="n = 1000001 gives degree 1000001,") as info:
        sweep_family("example1", [10**6 + 1], [2], verify=False)
    assert info.value.arguments == ("n",)
    assert built == []
    assert sweep_family("example1", [142], [2], verify=False).family_rows[0]["instances"] == 1
    assert sweep_family("example2", [999], [2], verify=False).family_rows[0]["instances"] == 1
    assert [f.degree for f in built] == [142, 999_000]
    assert families.MAX_FAMILY_COEFF_BITS == 20_000


@pytest.mark.parametrize(
    "family, values, primes, name, least",
    [("example1", [94, 4], [5], "n", 5), ("example2", [3, 1], [2], "d", 2)],
)
def test_sweep_family_refuses_a_value_below_the_least_before_sweeping_any(
    monkeypatch, family, values, primes, name, least
):
    entries = []
    monkeypatch.setattr(sweeps, "_sweep_entry", lambda *args: entries.append(args))
    with pytest.raises(InvalidInputError, match=f"^{family} needs {name} >= {least}$") as info:
        sweep_family(family, values, primes, verify=False)
    assert info.value.arguments == (name,)
    assert entries == []


def test_sweep_family_example2():
    summary = sweep_family("example2", [2], [2, 3])
    assert summary.passed
    assert summary.verified == 2
    assert len(summary.family_rows) == 2
    row = summary.family_rows[0]
    assert row["theorem"] == "TB"
    assert (row["s"], row["u"], row["d"], row["modulus"]) == (3, 3, 1, 3)
    assert (row["m_s"], row["m_0"]) == ("-1/3", "-1/2")
    assert row["matches_closed_form"]
    assert summary.certificates["TB"] == 2


def test_sweep_family_example1_budget_edge():
    summary = sweep_family("example1", [7], [3])
    assert summary.passed  # budget exhaustion is counted, not a violation
    assert summary.budget_errors == 16
    assert summary.verified == 0
    assert summary.family_rows[0]["instances"] == 16
    assert summary.certificates["T1"] == 16

    small = sweep_family("example1", [5], [2])
    assert small.passed
    assert small.verified == 1
    assert small.budget_errors == 0


def test_sweep_family_rejects_unknown():
    with pytest.raises(InvalidInputError, match="unknown family"):
        sweep_family("example9", [2], [2])


def test_repeated_primes_and_family_values_are_invalid_input():
    for call, argument in (
        (lambda: sweep(3, 1, [2, 2]), "primes"),
        (lambda: sweep(3, 1, [2, 3, 2], sample=4), "primes"),
        (lambda: sweep_family("example2", [2, 2], [2]), "d"),
        (lambda: sweep_family("example2", [2], [3, 3]), "primes"),
        (lambda: sweep_family("example1", [5, 6, 5], [2]), "n"),
        (lambda: sweep_family("example1", [5], [2, 2]), "primes"),
    ):
        with pytest.raises(InvalidInputError, match="must not repeat a value") as info:
            call()
        assert info.value.arguments == (argument,)
    assert sweep(3, 1, [2, 3], verify=False).total == 2 * sweep(3, 1, [2], verify=False).total


def test_sweep_primes_are_checked_before_any_entry_runs(monkeypatch):
    monkeypatch.setattr(sweeps, "_sweep_entry", lambda *args, **kwargs: pytest.fail("an entry ran"))
    for call in (
        lambda: sweep(2, 1, [4]),
        lambda: sweep(2, 1, [2, 4], sample=3),
        lambda: sweep(2, 1, [4, 4]),
        lambda: sweep_family("example2", [2], [4]),
        lambda: sweep_family("example2", [2, 2], [3, 4]),
        lambda: sweep_family("example1", [5], [3, 1]),
    ):
        with pytest.raises(InvalidInputError, match="is not (a valid )?prime") as info:
            call()
        assert info.value.arguments == ("primes",)


def test_empty_primes_and_family_values_are_invalid_input():
    for call, argument in (
        (lambda: sweep(3, 1, []), "primes"),
        (lambda: sweep(3, 1, (), sample=4), "primes"),
        (lambda: sweep_family("example2", [], [2]), "d"),
        (lambda: sweep_family("example2", [3], []), "primes"),
        (lambda: sweep_family("example1", [], [2]), "n"),
    ):
        with pytest.raises(InvalidInputError, match="must not be empty") as info:
            call()
        assert info.value.arguments == (argument,)


def test_family_values_below_their_minimum_are_invalid_input():
    with pytest.raises(InvalidInputError, match="n >= 5"):
        sweep_family("example1", [4], [2])
    with pytest.raises(InvalidInputError, match="d >= 2"):
        sweep_family("example2", [1], [2])
