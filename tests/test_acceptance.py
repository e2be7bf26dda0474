"""End-to-end acceptance checks.

Each test prints exactly one verdict line (criterion number, PASS or
FAIL, and the measured numbers) and then asserts.  All comparisons are
exact: integers, Fractions and string equality, never floats.  The
exhaustive degree 2-5 corpus sweep is computed once per session and
shared by the criteria that consume it.
"""

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest

from newton_gauge.criteria import analyze, compute_parameters
from newton_gauge.families import (
    example1_instances,
    example2_polynomial,
)
from newton_gauge.newton import (
    newton_index,
    newton_polygon,
    slope_table,
)
from newton_gauge.oracle import (
    BUDGET_ENV_VAR,
    MAX_ORACLE_COEFF,
    OracleBudgetError,
    kronecker_factor,
)
from newton_gauge.polynomial import AnalysisInput, Polynomial, parse_polynomial
from newton_gauge.sweeps import exhaustive_polynomials, sweep
from newton_gauge.report import load_schema


@pytest.fixture(scope="session")
def corpus_sweep():
    """Exhaustive sweep: degrees 2-5, coefficients {-3..3}, primes {2,3}."""
    start = time.perf_counter()
    summary = sweep(5, 3, [2, 3])
    return summary, time.perf_counter() - start


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _note(capsys, text):
    with capsys.disabled():
        print(f"  {text}")


def _violations_of(summary, *kinds):
    return [v for v in summary.violations if v.kind in kinds]


# ---------------------------------------------------------------------------


def test_criterion_1_steep_family_parameters(capsys):
    failures = []
    start = time.perf_counter()
    for d in (2, 3, 4):
        for p in (2, 3):
            inp = AnalysisInput(example2_polynomial(d, p), p)
            table = slope_table(inp)
            cert = analyze(inp).certificate
            params = cert.params
            checks = [
                table.index_of_max == (d + 1,),
                table.slope_at(d + 1) == (-1, d + 1),
                table.slope_at(0) == (-1, d),
                params is not None and params.u == d * d - 1,
                params is not None and params.d == d - 1,
                params is not None and params.modulus == d + 1,
                cert.base_theorem == "T2",
                (cert.theorem == "TB") == (d == 2),
            ]
            if not all(checks):
                failures.append((d, p, checks))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    _verdict(
        capsys, 1, ok,
        "second family d in {2,3,4}, p in {2,3}: s, m_s, m_0, u, gcd, modulus"
        f" and theorem tag all exact, {len(failures)} mismatches"
        f" ({elapsed:.3f}s < 1s)",
    )


def test_criterion_2_shifted_family_parameters(capsys):
    failures = []
    start = time.perf_counter()
    count = 0
    for n in (5, 6, 7):
        for p in (2, 3):
            for f in example1_instances(n, p):
                count += 1
                inp = AnalysisInput(f, p)
                table = slope_table(inp)
                cert = analyze(inp).certificate
                params = cert.params
                checks = [
                    table.index_of_max == (1,),
                    table.slope_at(1) == (n - 3, 1),
                    table.slope_at(2) == (0, 1),
                    table.slope_at(0) == (n * (n - 3) - 1, n),
                    params is not None and params.d == n - 1,
                    cert.base_theorem == "T1",
                    params is not None and params.modulus == 1,
                ]
                if not all(checks):
                    failures.append((n, p, checks))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    _verdict(
        capsys, 2, ok,
        f"first family n in {{5,6,7}}, p in {{2,3}}, all {count} members:"
        f" s=1, m_1=n-3, m_2=0, m_0=n-3-1/n, gcd=n-1, modulus 1,"
        f" {len(failures)} mismatches ({elapsed:.3f}s < 1s)",
    )

    # Stronger degree claim: reported, never asserted.  A member is
    # "held" when it is irreducible or some proper divisor has degree
    # divisible by n-1 (divisor degrees are subset sums of factor degrees).
    held = checked = 0
    for n in (5, 6, 7):
        for p in (2, 3):
            for f in example1_instances(n, p):
                if max(abs(c) for c in f.coeffs) > MAX_ORACLE_COEFF:
                    continue
                degrees = kronecker_factor(f).factor_degrees
                checked += 1
                if len(degrees) == 1:
                    held += 1
                    continue
                sums = {
                    sum(combo)
                    for r in range(1, len(degrees))
                    for combo in itertools.combinations(degrees, r)
                }
                if any(s % (n - 1) == 0 for s in sums):
                    held += 1
    _note(
        capsys,
        f"reported (not asserted): factor degree divisible by n-1 held on"
        f" {held}/{checked} oracle-checkable members",
    )


def test_criterion_3_index_multiplicativity(capsys):
    rng = random.Random(1234)

    def draw():
        deg = rng.randint(1, 6)
        coeffs = [rng.choice([c for c in range(-100, 101) if c != 0])]
        coeffs += [rng.randint(-100, 100) for _ in range(deg - 1)]
        coeffs.append(rng.choice([c for c in range(-100, 101) if c != 0]))
        return Polynomial(coeffs)

    failures = 0
    start = time.perf_counter()
    for _ in range(10_000):
        p = rng.choice([2, 3, 5])
        f, g = draw(), draw()
        if Fraction(*newton_index(f * g, p)) != max(
            Fraction(*newton_index(f, p)), Fraction(*newton_index(g, p))
        ):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    _verdict(
        capsys, 3, ok,
        f"e(f*g) = max(e(f), e(g)) exactly on 10000 random pairs,"
        f" {failures} failures ({elapsed:.2f}s < 10s)",
    )


def test_criterion_4_soundness_sweep(capsys, corpus_sweep):
    summary, elapsed = corpus_sweep
    cert_violations = _violations_of(summary, "certificate")
    dumas_violations = _violations_of(summary, "dumas")
    ok = (
        summary.total == 201_600
        and not cert_violations
        and not dumas_violations
        and summary.verified > 0
        and elapsed < 300.0
    )
    certs = summary.certificates
    _verdict(
        capsys, 4, ok,
        f"exhaustive corpus degrees 2-5, coefficients -3..3, primes 2,3:"
        f" {summary.total} analyses, {summary.verified} certificates verified"
        f" against the oracle, {len(cert_violations)} certificate violations,"
        f" {len(dumas_violations)} degree-set violations ({elapsed:.1f}s < 300s)",
    )
    _note(
        capsys,
        "certificates: " + "  ".join(f"{k}:{v}" for k, v in certs.items())
        + f"  (budget errors: {summary.budget_errors})",
    )


def test_criterion_5_integer_identities(capsys, corpus_sweep):
    # Every analysis of the sweep proved its certificate from the polygon's
    # degree pairs, or the sweep would have raised InternalError.
    summary, _ = corpus_sweep

    # independent recomputation on the degree 2-3 slice
    direct_failures = 0
    dominant = t1 = t2 = 0
    for f in exhaustive_polynomials(3, 3):
        for p in (2, 3):
            inp = AnalysisInput(f, p)
            table = slope_table(inp)
            if len(table.index_of_max) != 1:
                continue
            (s,) = table.index_of_max
            params = compute_parameters(inp, s)
            cert = analyze(inp).certificate
            n = params.n
            dominant += 1
            # u = n(n-s)(m_s - m_0), cross-multiplied by the slopes' widths
            (r_s, b_s), (r_0, b_0) = table.slope_at(s), table.slope_at(0)
            if params.u * b_s * b_0 != n * (n - s) * (r_s * b_0 - r_0 * b_s):
                direct_failures += 1
            reduced = (params.c_s // params.d) * n - ((n - s) // params.d) * params.c_n
            if cert.base_theorem == "T1" and s != 0:
                t1 += 1
                if reduced != 1:
                    direct_failures += 1
            elif cert.base_theorem == "T2":
                t2 += 1
                if reduced != params.u // params.d:
                    direct_failures += 1
    ok = summary.total == 201_600 and direct_failures == 0 and t1 > 0 and t2 > 0
    _verdict(
        capsys, 5, ok,
        f"u = n(n-s)(m_s - m_0) on every dominant-index entry, reduced integer"
        f" identity == 1 where the tight criterion applies and == u/gcd where"
        f" the split criterion applies: {direct_failures} direct failures"
        f" ({dominant} dominant, {t1} tight, {t2} split entries rechecked);"
        f" {summary.total} sweep analyses proved their certificates from the"
        f" polygon",
    )


def _hull_invariants_hold(polygon):
    verts = polygon.vertices
    if len(verts) < 2 or not set(verts) <= set(polygon.points):
        return False
    if any(ai >= bi for (ai, _), (bi, _) in zip(verts, verts[1:])):
        return False
    slopes = [Fraction(bv - av, bi - ai) for (ai, av), (bi, bv) in zip(verts, verts[1:])]
    if any(s1 >= s2 for s1, s2 in zip(slopes, slopes[1:])):
        return False
    for i, v in polygon.points:
        for (ai, av), (bi, bv) in zip(verts, verts[1:]):
            if ai <= i <= bi:
                lhs = Fraction(v - av)
                rhs = Fraction(bv - av, bi - ai) * (i - ai)
                if lhs < rhs:
                    return False
                break
        else:
            return False
    return True


def _concatenated_vertices(pf, pg):
    """Slope-sorted merge of the factor polygons' edge vectors."""
    vectors = [
        (bi - ai, bv - av)
        for verts in (pf.vertices, pg.vertices)
        for (ai, av), (bi, bv) in zip(verts, verts[1:])
    ]
    edges = sorted((Fraction(rise, width), width, rise) for width, rise in vectors)
    x = 0
    y = pf.vertices[0][1] + pg.vertices[0][1]
    verts = [(x, y)]
    i = 0
    while i < len(edges):
        slope, width, rise = edges[i]
        j = i + 1
        while j < len(edges) and edges[j][0] == slope:
            width += edges[j][1]
            rise += edges[j][2]
            j += 1
        x += width
        y += rise
        verts.append((x, y))
        i = j
    return verts


def test_criterion_6_polygon_invariants(capsys):
    rng = random.Random(777)
    invariant_failures = 0
    for _ in range(10_000):
        p = rng.choice([2, 3, 5])
        deg = rng.randint(2, 8)
        coeffs = [rng.choice([1, -1, 2, -3, 5]) * p ** rng.randint(0, 5)]
        coeffs += [
            rng.randint(-4, 4) * p ** rng.randint(0, 5) for _ in range(deg - 1)
        ]
        coeffs.append(rng.choice([1, -1, 2, -3]) * p ** rng.randint(0, 5))
        if not _hull_invariants_hold(newton_polygon(Polynomial(coeffs), p)):
            invariant_failures += 1

    concat_failures = 0
    for _ in range(1_000):
        p = rng.choice([2, 3, 5])
        f = _nonzero_ends_poly(rng, 1, 5, 50)
        g = _nonzero_ends_poly(rng, 1, 5, 50)
        product_polygon = newton_polygon(f * g, p)
        expected = _concatenated_vertices(newton_polygon(f, p), newton_polygon(g, p))
        actual = list(product_polygon.vertices)
        if actual != expected:
            concat_failures += 1

    ok = invariant_failures == 0 and concat_failures == 0
    _verdict(
        capsys, 6, ok,
        f"hull invariants on 10000 random inputs: {invariant_failures} failures;"
        f" product polygon == slope-sorted concatenation of factor polygons on"
        f" 1000 random products: {concat_failures} failures",
    )


def _nonzero_ends_poly(rng, min_deg, max_deg, bound):
    deg = rng.randint(min_deg, max_deg)
    coeffs = [rng.choice([c for c in range(-bound, bound + 1) if c != 0])]
    coeffs += [rng.randint(-bound, bound) for _ in range(deg - 1)]
    coeffs.append(rng.choice([c for c in range(-bound, bound + 1) if c != 0]))
    return Polynomial(coeffs)


def test_criterion_7_oracle_self_consistency(capsys, corpus_sweep):
    summary, _ = corpus_sweep
    # every kronecker_factor call re-multiplies its witness and raises on
    # mismatch, so a completed sweep certifies integrity on 100% of entries
    spot_failures = _violations_of(summary, "irreducibility-spot-check")
    mult_failures = _violations_of(summary, "index-multiplicativity")
    ok = (
        summary.total == 201_600
        and summary.spot_checks > 0
        and not spot_failures
        and not mult_failures
    )
    _verdict(
        capsys, 7, ok,
        f"witness re-multiplication enforced on all {summary.verified} oracle"
        f" runs; {summary.spot_checks} deep spot checks (witness product and"
        f" re-factorization), {len(spot_failures)} failures",
    )


def test_criterion_8_cli_contract(capsys, monkeypatch, tmp_path):
    schema = load_schema()
    exe = shutil.which("newton-gauge")
    base = [exe] if exe else [sys.executable, "-m", "newton_gauge"]
    problems = []

    def run(*args, env_extra=None):
        env = dict(os.environ)
        env.pop(BUDGET_ENV_VAR, None)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            base + list(args), capture_output=True, text=True, env=env
        )

    # exit 0 + schema-valid JSON from all three subcommands
    proc = run("analyze", "--poly", "x^6+2*x^3+8", "--prime", "2", "--json")
    report = json.loads(proc.stdout)
    jsonschema.validate(report, schema)
    if proc.returncode != 0 or report["certificate"]["theorem"] != "TB":
        problems.append("analyze")

    proc = run("verify", "--poly", "(x-1)*(x+1)", "--prime", "2", "--json")
    report = json.loads(proc.stdout)
    jsonschema.validate(report, schema)
    if proc.returncode != 0 or not report["verification"]["passed"]:
        problems.append("verify")

    proc = run(
        "sweep", "--max-degree", "4", "--coeff-bound", "3",
        "--primes", "2,3", "--exhaustive", "--json",
    )
    report = json.loads(proc.stdout)
    jsonschema.validate(report, schema)
    if proc.returncode != 0 or not report["passed"] or report["total"] != 28_728:
        problems.append("sweep")

    # exit 2: bad input on stderr
    proc = run("analyze", "--poly", "x^2+2", "--prime", "4")
    if proc.returncode != 2 or "4 is not prime" not in proc.stderr:
        problems.append("exit-2")

    # exit 3: verification requested but the oracle budget is too small
    proc = run(
        "verify", "--poly", "x^4+1", "--prime", "2",
        env_extra={BUDGET_ENV_VAR: "1"},
    )
    if proc.returncode != 3 or "oracle out of budget" not in proc.stderr:
        problems.append("exit-3")

    # exit 4: verification failure (cannot occur honestly, so force one)
    from newton_gauge import cli as cli_module
    from newton_gauge import oracle as oracle_module
    from newton_gauge.oracle import BipartitionCheck, VerificationReport

    failing = VerificationReport(
        passed=False,
        content_valuation=0,
        factor_degrees=(1, 1),
        bipartitions=(BipartitionCheck(degrees=(1, 1), satisfied=()),),
        no_split_clauses=(),
    )
    monkeypatch.setattr(oracle_module, "verify_certificate", lambda *a, **k: failing)
    code = cli_module.main(["verify", "--poly", "(x-1)*(x+1)", "--prime", "2"])
    capsys.readouterr()
    if code != 4:
        problems.append("exit-4")

    ok = not problems
    _verdict(
        capsys, 8, ok,
        "all three subcommands emit schema-valid JSON; exit codes 0/2/3/4"
        f" observed on the documented commands ({'all good' if ok else problems})",
    )
