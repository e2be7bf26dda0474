import itertools
import math
import pickle
import random
import struct
import types
from fractions import Fraction

import pytest
import sympy

from newton_gauge import families, newton, oracle, sweeps
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
    _identity_violations,
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


def _metered_factor(monkeypatch, f, budget):
    """kronecker_factor(f, budget) and the units its meter spent."""
    meters = []

    class Recorded(_Budget):
        __slots__ = ()

        def __init__(self, cap):
            super().__init__(cap)
            meters.append(self)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_Budget", Recorded)
        witness = kronecker_factor(f, budget=budget)
    return witness, meters[-1].spent


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
        message = f"{total} candidates exceed the cap of {total - 1} "
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


def test_candidates_built_on_the_seeded_corpus_are_pinned(monkeypatch):
    # Only matches that pass the leading-coefficient and probe-point
    # tests are built and trial-divided: 186 of the 50,267 that a residue
    # lookup alone would build.
    built = 0
    real = oracle._candidate_factor

    def counting(*args):
        nonlocal built
        built += 1
        return real(*args)

    monkeypatch.setattr(oracle, "_candidate_factor", counting)
    for f in _search_corpus():
        kronecker_factor(f, budget=10**9)
    assert built == 186


def test_budget_exhausting_search_reports_the_same_spend(monkeypatch):
    # a 6 + 6 composite whose degree-6 search needs more than 10^7 units
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    f = _poly("(x^6-2x^5+3x^3+2x-2)(2x^6-2x^5-3x^3+3x^2-x-1)")
    with pytest.raises(OracleBudgetError, match="10000001 candidates exceed the cap of 10000000 "):
        kronecker_factor(f)


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
        got = real_matches(sums, partial, common, flead, scaled_leads)
        leads = {s: (partial + s) // common for s in sums}
        assert got == sorted(j for s, js in sums.items() if leads[s] and flead % leads[s] == 0 for j in js)
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
    with pytest.raises(OracleBudgetError, match="10000001 candidates exceed the cap of 10000000 "):
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


# The F_q kernels as they were before the in-place rewrite: every Euclid
# step builds the quotient and makes the divisor monic, x^q comes from
# list concatenation, and each Frobenius row is a product divided through
# _reference_fq_divmod.  The analysis must give the same (q, degrees)
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


def _reference_modular_factor_degrees(f, meter):
    for q in oracle._DEGREE_ANALYSIS_PRIMES:
        if f.leading_coefficient % q == 0:
            continue
        fq = _reference_fq_monic([c % q for c in f.coeffs], q)
        derivative = _reference_fq_trim([i * c % q for i, c in enumerate(fq)][1:])
        meter.spend()
        if len(_reference_fq_gcd(fq, derivative, q)) > 1:
            continue
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


def test_fq_kernels_match_the_reference_kernels():
    skipped_for_the_lead = skipped_as_square = 0
    degrees_seen = set()
    for f in _degree_analysis_corpus():
        meter, reference_meter = _SpendLog(10**9), _SpendLog(10**9)
        stream = list(_modular_factor_degrees(f, meter))
        reference = list(_reference_modular_factor_degrees(f, reference_meter))
        assert stream == reference, str(f)
        assert meter.amounts == reference_meter.amounts, str(f)
        used = [q for q, _ in stream]
        lead_ok = [q for q in oracle._DEGREE_ANALYSIS_PRIMES if f.leading_coefficient % q]
        skipped_for_the_lead += len(oracle._DEGREE_ANALYSIS_PRIMES) - len(lead_ok)
        skipped_as_square += len(lead_ok) - len(used)
        degrees_seen.add(f.degree)
    # the corpus reaches every branch: primes dividing the lead, primes
    # mod which f is not squarefree, and every degree from 6 to 12
    assert skipped_for_the_lead > 0 and skipped_as_square > 0
    assert degrees_seen == set(range(6, 13))


# The packed Frobenius kernel at the oracle's limits.  Its largest slot is
# a column of x^(iq) mod f: the sum over k < n of a residue (at most q - 1)
# times a shift-register slot (at most n (q - 1)^2, since each of the n
# steps a slot takes to reach the top adds at most (q - 1)^2).


def _slot_bound(n, q):
    return n * (q - 1) * n * (q - 1) ** 2


def test_packed_slots_fit_their_width_at_the_oracle_limits():
    q = max(oracle._DEGREE_ANALYSIS_PRIMES)
    assert oracle._SLOT_BITS == 8 * struct.calcsize("<I") == 32
    assert _slot_bound(MAX_ORACLE_DEGREE, q) < 2**oracle._SLOT_BITS
    # a full slot survives the unpack, lowest degree first
    full = 2**oracle._SLOT_BITS - 1
    packed = full << oracle._SLOT_BITS | 7
    assert oracle._fq_unpack(struct.Struct("<2I"), packed, 2**40) == [7, full]


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
    degrees = oracle._distinct_degrees(list(f), q, meter)
    assert degrees == _reference_distinct_degrees(list(f), q, reference_meter)
    assert meter.amounts == reference_meter.amounts
    assert sum(degrees) == n
    assert q * q < max(largest) <= _slot_bound(n, q)


def _budget_outcome(analysis, f, cap, spent):
    meter = _SpendLog(cap, spent)
    stream = []
    try:
        for item in analysis(f, meter):
            stream.append(item)
    except OracleBudgetError as exc:
        return stream, meter.amounts, str(exc)
    return stream, meter.amounts, None


def test_fq_kernels_run_out_of_budget_at_the_same_spend(monkeypatch):
    rng = random.Random(47)
    for f in _degree_analysis_corpus()[::4]:
        units = sum(_budget_outcome(_reference_modular_factor_degrees, f, 10**9, 0)[1])
        for cap in {units - 1, rng.randrange(units)}:
            pre = rng.randrange(1000)
            expected = _budget_outcome(_reference_modular_factor_degrees, f, pre + cap, pre)
            assert expected[2] is not None
            assert _budget_outcome(_modular_factor_degrees, f, pre + cap, pre) == expected
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
    for a3, a0, a1, a2 in itertools.product([v for v in values if v > 0], values[1:], values, values):
        _sweep_entry(summary, Polynomial((a0, a1, a2, a3)), [2, 3], True)
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
    for i in range(3_000):
        a0 = rng.choice(values[1:])
        middle = [rng.choice(values) for _ in range(3 + i % 3)]
        f = Polynomial([a0, *middle, rng.choice(leads)])
        _sweep_entry(summary, f, [2, 3], True)
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
    assert _spot_check(f, kronecker_factor(f)) == []
    wrong = FactorizationWitness(1, 1, (_poly("x+1"), _poly("x-1")))
    (violation,) = _spot_check(_poly("x^2+2x+1"), wrong)
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
    monkeypatch.setattr(oracle, "kronecker_factor", lambda g: split)
    (violation,) = _spot_check(f, witness)
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
    assert _spot_check(f, witness) == []
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
    monkeypatch.setattr(oracle, "kronecker_factor", lambda g: refactored.append(str(g)) or real(g))
    assert _spot_check(f, witness) == []
    assert refactored == ["x^2+1", "x^2+2"]


def test_a_spot_check_out_of_budget_counts_as_a_budget_error(monkeypatch):
    # f factors in 373 units, but re-factoring its degree-7 factor takes
    # 5,442; the entry is put in the spot-checked slice by hand.
    monkeypatch.setenv(BUDGET_ENV_VAR, "3000")
    monkeypatch.setattr(sweeps, "zlib", types.SimpleNamespace(crc32=lambda data: 0))
    f = _poly("72*x^9-18*x^8+3*x^7-174*x^6+6*x^5+37*x^4+29*x^3+79*x^2-49*x-18")
    assert kronecker_factor(f).factor_degrees == (2, 7)
    summary = SweepSummary(corpus={})
    _sweep_entry(summary, f, [2, 3], True)
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
        "notes": [],
        "params": {"n": 4, "s": 0, "c_s": 0, "c_n": 0, "d": 4, "u": 0, "modulus": 1},
    },
    "witness": {"sign": 1, "content": 2, "factors": ["x+1", "x^3+x^2-x+3"]},
}


def _entry_violations():
    summary = SweepSummary(corpus={})
    _sweep_entry(summary, _poly(_BUNDLE_POLY), [2], True)
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
    _assert_bundle(_entry_violations(), "certificate", {"failed_bipartitions": [(1, 3)]})


def test_sweep_entry_dumas_violation_bundle(monkeypatch):
    monkeypatch.setattr(oracle, "check_dumas_consistency", lambda *args: [(1, 3)])
    _assert_bundle(
        _entry_violations(),
        "dumas",
        {"missing_pairs": [(1, 3)], "allowed": [[0, 4], [1, 3], [2, 2]]},
    )


def test_sweep_entry_index_violation_bundle(monkeypatch):
    monkeypatch.setattr(newton, "newton_index", lambda g, p: (7, 2))
    _assert_bundle(
        _entry_violations(),
        "index-multiplicativity",
        {"from_factors": "7/2", "direct": "0"},
    )


def test_sweep_entry_builds_no_bundle_when_it_passes(monkeypatch):
    def refuse(cert):
        raise AssertionError("bundle built for a passing entry")

    monkeypatch.setattr(sweeps, "_certificate_detail", refuse)
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
    # (x^2+30)(x^3+30x+30) and (x^2+30)(x+30): TA at p = 2, 3 and 5
    for text in ("x^5+60*x^3+30*x^2+900*x+900", "x^3+30*x^2+30*x+900"):
        del enumerations[:], checks[:]
        _sweep_entry(summary, _poly(text), [2, 3, 5], True)
        assert len(enumerations) == 1
        assert sorted(checks) == ["check_dumas_consistency"] * 3 + ["verify_certificate"] * 3
    assert summary.verified == 6 and summary.violations == []


def test_sweep_entry_multiplies_each_witness_back_once(monkeypatch):
    products = []
    real = FactorizationWitness.reconstruct
    monkeypatch.setattr(FactorizationWitness, "reconstruct", lambda w: products.append(w) or real(w))
    summary = SweepSummary(corpus={})
    for text in ("x^5+60*x^3+30*x^2+900*x+900", "x^3+30*x^2+30*x+900"):
        del products[:]
        _sweep_entry(summary, _poly(text), [2, 3, 5], True)
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


def _tampered_identity_violations(text, **params):
    """Identity violations of a p = 2 analysis whose parameters are altered."""
    analysis = analyze(AnalysisInput(_poly(text), 2))
    cert = analysis.certificate
    tampered = Certificate(
        cert.theorem,
        CriteriaParameters(**{**cert.params.as_dict(), **params}),
        cert.clauses,
        cert.notes,
    )
    return _identity_violations(
        Analysis(analysis.input, analysis.table, analysis.polygon, tampered, analysis.dumas_pairs)
    )


def _assert_identity_bundle(violations, kind, expected):
    assert violations == [Violation(kind, expected)]
    assert list(violations[0].detail) == list(expected)


def test_identity_integrality_violation_bundle():
    # TB, n=6 s=3 c_n=-3 u=3; u = n*c_s - (n-s)*c_n still holds, the slope gap does not
    _assert_identity_bundle(
        _tampered_identity_violations("x^6+2*x^3+8", c_n=-4, u=6),
        "identity-integrality",
        {"polynomial": "x^6+2*x^3+8", "prime": 2, "theorem": "TB", "u": 6},
    )


def test_identity_e1_violation_bundle():
    # TA, n=3 s=1 c_s=-1 c_n=-2: the reduced identity reads 3 instead of 1
    _assert_identity_bundle(
        _tampered_identity_violations("x^3+2*x+4", c_n=-3),
        "identity-e1",
        {"polynomial": "x^3+2*x+4", "prime": 2, "theorem": "TA", "value": 3},
    )


def test_identity_e2_violation_bundle():
    # TB with d=3, which does not divide c_s=-1: floor division breaks the identity
    _assert_identity_bundle(
        _tampered_identity_violations("x^6+2*x^3+8", d=3),
        "identity-e2",
        {"polynomial": "x^6+2*x^3+8", "prime": 2, "theorem": "TB", "value": -3, "expected": 1},
    )


def test_identity_check_builds_no_bundle_when_it_passes(monkeypatch):
    def refuse(poly):
        raise AssertionError("bundle built for a passing analysis")

    analyses = [
        analyze(AnalysisInput(_poly(text), 2))
        for text in ("x^6+2*x^3+8", "x^3+2*x+4", "x^3+2*x+2", "x^4+2*x^3+4")
    ]
    assert {a.certificate.theorem for a in analyses} == {"TB", "TA", "T1", "Dumas-s0"}
    monkeypatch.setattr(Polynomial, "__str__", refuse)
    for analysis in analyses:
        assert _identity_violations(analysis) == []


def _family_bundle(**changes):
    """Family violations of example1(5, 2, 1, 1, 1, 1) against an altered closed form."""
    analysis = analyze(AnalysisInput(families.example1_polynomial(5, 2, 1, 1, 1, 1), 2))
    return sweeps._family_violations(analysis, {**families.example1_expected(5), **changes})


_FAMILY_EXPECTED = {
    "s": "1", "c_s": "8", "c_n": "9", "d": "4", "u": "4", "modulus": "1",
    "theorem": "T1", "m_s": "2", "m_0": "9/5", "m_2": "0",
}


@pytest.mark.parametrize(
    "changes, extra",
    [
        (
            {"theorem": "T2"},
            {"actual": {"theorem": "T1", "notes": [], "params": {
                "n": 5, "s": 1, "c_s": 8, "c_n": 9, "d": 4, "u": 4, "modulus": 1}}},
        ),
        ({"u": 5}, {"actual": {"s": 1, "c_s": 8, "c_n": 9, "d": 4, "u": 4, "modulus": 1}}),
        ({"m_0": (1, 1)}, {"slope_index": 0, "actual_slope": "9/5"}),
        ({"m_s": (-3, 2)}, {"slope_index": 1, "actual_slope": "2"}),
    ],
)
def test_family_violation_bundle(changes, extra):
    # A closed-form slope is a (rise, width) pair, printed as its Fraction.
    texts = {k: str(Fraction(*v) if isinstance(v, tuple) else v) for k, v in changes.items()}
    expected = {
        "polynomial": "512*x^5+512*x^2+2*x+1",
        "prime": 2,
        "expected": {**_FAMILY_EXPECTED, **texts},
        **extra,
    }
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
    assert sweeps.MAX_FAMILY_COEFF_BITS == 20_000


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
