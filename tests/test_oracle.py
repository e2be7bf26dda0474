import random
from fractions import Fraction

import pytest
import sympy

from newton_gauge import oracle
from newton_gauge.criteria import (
    Analysis,
    Certificate,
    CriteriaParameters,
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
    exhaustive_polynomials,
    kronecker_factor,
    oracle_budget,
    sampled_polynomials,
    sweep,
    sweep_family,
    verify_certificate,
)
from newton_gauge.oracle import (
    SweepSummary,
    VerificationReport,
    Violation,
    _Budget,
    _allowed_factor_degrees,
    _divisors,
    _identity_violations,
    _modular_factor_degrees,
    _spot_check,
    _sweep_entry,
)
from newton_gauge.polynomial import (
    AnalysisInput,
    InvalidInputError,
    Polynomial,
    content_and_primitive,
    parse_polynomial,
)


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
    with pytest.raises(ValueError, match="positive integer"):
        oracle_budget()


def test_budget_exhaustion(monkeypatch):
    with pytest.raises(OracleBudgetError, match="raise NEWTON_GAUGE_BUDGET"):
        kronecker_factor(_poly("x^2-1"), budget=1)
    monkeypatch.setenv(BUDGET_ENV_VAR, "1")
    with pytest.raises(OracleBudgetError):
        kronecker_factor(_poly("x^2-1"))


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


def test_verify_rejects_tampered_witness():
    f = _poly("x^2-1")
    bad = FactorizationWitness(sign=1, content=1, factors=(_poly("x+1"), _poly("x+1")))
    cert = analyze(AnalysisInput(f, 2)).certificate
    with pytest.raises(WitnessIntegrityError):
        verify_certificate(f, 2, cert, bad)


def test_check_dumas_consistency():
    f = _poly("x^6+2x^3+8")
    pairs = ((0, 6), (3, 3))
    assert check_dumas_consistency(pairs, kronecker_factor(f)) == []
    fake = FactorizationWitness(1, 1, (_poly("x+1"), _poly("x^5+7")))
    assert check_dumas_consistency(pairs, fake) == [(1, 5)]


def test_spot_check_detects_wrong_factors():
    f = _poly("x^2-1")
    assert _spot_check(f, kronecker_factor(f), None) == []
    wrong = FactorizationWitness(1, 1, (_poly("x+1"), _poly("x-1")))
    assert _spot_check(_poly("x^2+2x+1"), wrong, None) != []


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
    assert summary.corpus["mode"] == "exhaustive"


def test_sweep_without_verification():
    summary = sweep(3, 2, [2], verify=False)
    assert summary.verified == 0
    assert summary.budget_errors == 0
    assert summary.passed


def test_sweep_sampled_counts_budget_errors():
    summary = sweep(4, 3, [2], sample=60, seed=9, budget=2)
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
    from newton_gauge.oracle import MAX_EXHAUSTIVE_POLYNOMIALS, _capped_corpus_size

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
    _sweep_entry(summary, _poly(_BUNDLE_POLY), [2], True, None)
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
    monkeypatch.setattr(oracle, "newton_index", lambda g, p: Fraction(7, 2))
    _assert_bundle(
        _entry_violations(),
        "index-multiplicativity",
        {"from_factors": "7/2", "direct": "0"},
    )


def test_sweep_entry_builds_no_bundle_when_it_passes(monkeypatch):
    def refuse(cert):
        raise AssertionError("bundle built for a passing entry")

    monkeypatch.setattr(oracle, "_certificate_detail", refuse)
    assert _entry_violations() == []


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
    with pytest.raises(ValueError, match="unknown family"):
        sweep_family("example9", [2], [2])
