"""The four benchmark workloads: seeded input streams, the timed op, and
the correctness check each op gets outside the timed region.

Every workload is a closed loop with one client: the next op starts
when the previous one returns.  Inputs come from an infinite stream
drawn from ``--seed``; the program sees only the generated inputs.
Streams are stratified in fixed-size blocks (degree, prime and input
kind rotate through every combination in each block, in a seeded
order), so any window of a run has the same mix and runs on different
seeds differ only in the random coefficients.

Why these four:

* ``sweep-acceptance``: the user path behind ``newton-gauge sweep``,
  many tiny inputs, analysis and oracle at about equal cost.  An op is
  one sweep entry (polynomial, prime); a timed call is one
  ``oracle.sweep`` of ``SWEEP_SAMPLE`` polynomials, and the latency
  metrics are per call.
* ``verify-padic``: in-process ``verify`` on degree 6-7 inputs with
  p-adic coefficients, where the Kronecker oracle and its
  irreducibility search dominate and have a tail.
* ``analyze-bigval``: in-process ``analyze --json`` on degree 20-59
  inputs with valuations in the thousands, beyond oracle scale; loads
  parsing, valuations, hull, criteria and the JSON report path.
* ``cli-cold``: one ``python -m newton_gauge`` child per op, the only
  workload that pays interpreter start and imports.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "newton_gauge" / "report.schema.json"

# sweep-acceptance: the acceptance box of ROADMAP (degrees 2-5, |a_i| <= 3,
# p in {2, 3}); one timed call sweeps this many polynomials.
SWEEP_SAMPLE = 100
SWEEP_PRIMES = (2, 3)

# verify-padic: coefficients u*p^k with |u| <= 3 and k <= 2.  Degree 8
# gave single inputs of 10-22 s and budget errors, so degree stops at 7.
VERIFY_DEGREES = (6, 7)
VERIFY_PRIMES = (2, 3)
VERIFY_KMAX = 2

# analyze-bigval: valuations up to 2,000 keep every coefficient (3*7^2000
# has 1,691 digits) under Python's 4,300-digit int-to-str limit, above
# which the report crashes.
BIGVAL_DEGREES = (20, 59)
BIGVAL_PRIMES = (2, 3, 5, 7)
BIGVAL_KMAX = 2000
BIGVAL_DENSITY = 0.6

# cli-cold: desk-scale inputs of degree 2-6 built like verify-padic's.
# Every verify child gets an input with a certificate, so it imports sympy
# and runs the oracle.  Two analyze children per verify child put the
# median inside the analyze mode and the p75 tail inside the verify mode;
# at one to one the median would sit on the boundary between them.
COLD_DEGREES = (2, 6)


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def format_poly(coeffs: list) -> str:
    """Polynomial text in descending powers; terms are (coefficient, text)
    pairs or plain ints, so a term can carry ``p^k`` notation."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        term = coeffs[e]
        value, body = term if isinstance(term, tuple) else (term, str(abs(term)))
        if value == 0:
            continue
        if e:
            body = f"{body}*x^{e}" if e > 1 else f"{body}*x"
        sign = "-" if value < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts)


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def text_degree(text: str) -> int:
    """Degree of one factor as printed, read from its exponents alone."""
    degree = 0
    for match in re.finditer(r"x(?:\^(\d+))?", text):
        degree = max(degree, int(match.group(1) or 1))
    return degree


class Op:
    """One timed operation and what the benchmark knows about its input."""

    __slots__ = ("argv", "entries", "known")

    def __init__(self, argv: list, entries: int = 1, known: Optional[dict] = None):
        self.argv = argv
        self.entries = entries
        self.known = known or {}


# ---------------------------------------------------------------------------
# Input streams


def sweep_stream(seed: int) -> Iterator[Op]:
    rng = _rng(seed, "sweep-acceptance")
    while True:
        chunk_seed = rng.getrandbits(32)
        yield Op(["sweep", chunk_seed], entries=SWEEP_SAMPLE * len(SWEEP_PRIMES))


def _padic_coeff(rng: random.Random, p: int, nonzero: bool) -> int:
    u = rng.choice((-3, -2, -1, 1, 2, 3) if nonzero else (-3, -2, -1, 0, 1, 2, 3))
    return u * p ** rng.randint(0, VERIFY_KMAX)


def _padic_poly(rng: random.Random, n: int, p: int) -> list:
    return (
        [_padic_coeff(rng, p, True)]
        + [_padic_coeff(rng, p, False) for _ in range(n - 1)]
        + [_padic_coeff(rng, p, True)]
    )


def verify_stream(seed: int) -> Iterator[Op]:
    rng = _rng(seed, "verify-padic")
    block = [
        (kind, p, n)
        for kind in ("random", "product")
        for p in VERIFY_PRIMES
        for n in VERIFY_DEGREES
    ]
    while True:
        rng.shuffle(block)
        for kind, p, n in block:
            known = {"prime": p, "kind": kind}
            if kind == "random":
                coeffs = _padic_poly(rng, n, p)
            else:
                d1 = rng.randint(1, n // 2)
                coeffs = poly_mul(_padic_poly(rng, d1, p), _padic_poly(rng, n - d1, p))
                known["split"] = (d1, n - d1)
            known["coeffs"] = coeffs
            yield Op(["verify", "--poly=" + format_poly(coeffs), "--prime", str(p)], known=known)


def _unit(rng: random.Random, p: int) -> int:
    return rng.choice([u for u in (-3, -2, -1, 1, 2, 3) if u % p])


def bigval_stream(seed: int) -> Iterator[Op]:
    rng = _rng(seed, "analyze-bigval")
    lo, hi = BIGVAL_DEGREES
    bins = 8
    width = (hi - lo + 1) // bins
    for block in itertools.count():
        # one degree from each of eight equal bins, each prime twice; the
        # degrees step through each bin, the same on every seed, since
        # the degree sets most of an op's cost
        degrees = [lo + b * width + block % width for b in range(bins)]
        primes = list(BIGVAL_PRIMES) * (bins // len(BIGVAL_PRIMES))
        rng.shuffle(degrees)
        rng.shuffle(primes)
        for n, p in zip(degrees, primes):
            interior = rng.sample(range(1, n), round(BIGVAL_DENSITY * (n - 1)))
            support = sorted([0, *interior, n])
            terms: list = [0] * (n + 1)
            valuations = {}
            for i in support:
                u = _unit(rng, p)
                k = rng.randint(0, BIGVAL_KMAX)
                valuations[i] = k
                body = f"{abs(u)}*{p}^{k}" if k else str(abs(u))
                terms[i] = (u, body)
            known = {"prime": p, "degree": n, "valuations": valuations}
            yield Op(
                ["analyze", "--poly=" + format_poly(terms), "--prime", str(p), "--json"],
                known=known,
            )


def _valuation(c: int, p: int) -> int:
    e = 0
    while c % p == 0:
        c //= p
        e += 1
    return e


def has_certificate(coeffs: list, p: int) -> bool:
    """True when the largest slope (v(a_n) - v(a_i)) / (n - i) is attained
    at one index only, the condition under which a certificate applies."""
    n = len(coeffs) - 1
    vn = _valuation(coeffs[n], p)
    slopes = [Fraction(vn - _valuation(c, p), n - i) for i, c in enumerate(coeffs[:-1]) if c]
    return slopes.count(max(slopes)) == 1


def cold_stream(seed: int) -> Iterator[Op]:
    rng = _rng(seed, "cli-cold")
    while True:
        for command in ("analyze", "verify", "analyze"):
            p = rng.choice(VERIFY_PRIMES)
            coeffs = _padic_poly(rng, rng.randint(*COLD_DEGREES), p)
            # a verify child without a certificate skips the oracle and
            # would join the analyze mode; draw until one applies
            while command == "verify" and not has_certificate(coeffs, p):
                coeffs = _padic_poly(rng, rng.randint(*COLD_DEGREES), p)
            yield Op([command, "--poly=" + format_poly(coeffs), "--prime", str(p), "--json"])


# ---------------------------------------------------------------------------
# Running one op


def run_in_process(op: Op) -> tuple:
    """``cli.main(argv)`` with stdout and stderr captured; returns
    (exit code, stdout).  The timed region covers the call only."""
    from newton_gauge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op.argv)
    return code, out.getvalue()


def run_sweep(op: Op) -> tuple:
    """One ``newton-gauge sweep --json`` equivalent: the sweep, its report
    and the JSON text.  Returns (json text, summary)."""
    from newton_gauge import oracle, report

    summary = oracle.sweep(
        5, 3, list(SWEEP_PRIMES), sample=SWEEP_SAMPLE, seed=op.argv[1], verify=True
    )
    text = json_dumps(report.sweep_report(summary), sort_keys=True)
    return text, summary


# The traced run swaps this for a span-recording wrapper.
json_dumps = json.dumps


def cold_command(op: Op, traced: bool) -> list:
    if traced:
        return [sys.executable, "-X", "importtime", str(ROOT / "bench" / "child.py"), *op.argv]
    return [sys.executable, "-m", "newton_gauge", *op.argv]


def cold_env() -> dict:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cold(op: Op, env: dict, traced: bool = False) -> subprocess.CompletedProcess:
    return subprocess.run(
        cold_command(op, traced), cwd=ROOT, env=env, capture_output=True, text=True
    )


# ---------------------------------------------------------------------------
# Correctness checks, against references the program does not produce


def clause_accepts(clause: dict, d1: int, d2: int, content_divisible: bool) -> bool:
    kind = clause["kind"]
    if kind == "DegreeZeroFactor":
        return content_divisible
    if kind == "FactorDegreeMultipleOf":
        return d1 % clause["modulus"] == 0 or d2 % clause["modulus"] == 0
    if kind == "AlphaSplit":
        m, total = clause["modulus"], clause["total"]
        return any(((total - a1) * d1 - a1 * d2) % m == 0 for a1 in range(1, total))
    return False  # Irreducible: a built product of two nonconstant factors splits


def sympy_degrees(coeffs: list) -> list:
    import sympy

    x = sympy.Symbol("x")
    expr = sum(c * x**i for i, c in enumerate(coeffs))
    _, factors = sympy.factor_list(expr)
    return sorted(d for f, mult in factors for d in [sympy.degree(f, x)] * mult if d > 0)


def check_verify(op: Op, code: int, text: str, deep: bool) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    tag_line = re.search(r"^certificate\s+(\S+)$", text, re.M)
    if tag_line is None:
        return "no certificate line"
    tag = tag_line.group(1)
    if tag == "none":
        if "verification      skipped" not in text:
            return "none certificate without a skipped verification"
        return None
    if "verification      PASS" not in text:
        return "verification did not pass"
    known = op.known
    if deep:
        factors = re.search(r"^  factors {9}(.*)$", text, re.M)
        if factors is None:
            return "no factors line"
        got = sorted(text_degree(f) for f in factors.group(1).split("  ") if f)
        want = sympy_degrees(known["coeffs"])
        if got != want:
            return f"witness degrees {got} != sympy.factor_list degrees {want}"
    if "split" in known:
        from newton_gauge.criteria import analyze
        from newton_gauge.polynomial import AnalysisInput, Polynomial
        from newton_gauge.report import certificate_dict

        p = known["prime"]
        cert = certificate_dict(analyze(AnalysisInput(Polynomial(known["coeffs"]), p)).certificate)
        if cert["theorem"] != tag:
            return f"certificate {tag} printed, {cert['theorem']} recomputed"
        content = math.gcd(*known["coeffs"])
        d1, d2 = known["split"]
        if not any(clause_accepts(c, d1, d2, content % p == 0) for c in cert["clauses"]):
            return f"certificate {tag} rejects the built split {known['split']}"
    return None


@functools.lru_cache(maxsize=None)
def _schema_validator():
    import jsonschema

    return jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))


def check_bigval(op: Op, code: int, text: str, deep: bool) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    report = json.loads(text)
    known = op.known
    vals = known["valuations"]
    points = [[i, vals[i]] for i in sorted(vals)]
    if report["valuation_points"] != points:
        return "valuation points differ from the construction"
    n = known["degree"]
    index = max(Fraction(vals[n] - vals[i], n - i) for i in vals if i < n)
    if report["slope_table"]["newton_index"] != str(index):
        return f"newton index {report['slope_table']['newton_index']} != {index}"
    if deep:
        errors = list(_schema_validator().iter_errors(report))
        if errors:
            return f"schema: {errors[0].message[:200]}"
    return None


def check_sweep(op: Op, summary) -> Optional[str]:
    if summary.total != op.entries:
        return f"{summary.total} entries analysed, {op.entries} expected"
    if not summary.passed or summary.violations:
        return f"sweep reports {len(summary.violations)} violations"
    return None


def clear_caches() -> None:
    """Empty the oracle's caches, as a fresh newton-gauge process has them."""
    from newton_gauge import oracle

    oracle._divisors.cache_clear()
    oracle._lagrange_basis.cache_clear()


def in_process_output(op: Op) -> tuple:
    """(exit code, stdout) of the same argv run through ``cli.main``."""
    clear_caches()
    return run_in_process(op)


def check_cold(op: Op, proc: subprocess.CompletedProcess) -> Optional[str]:
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
    code, text = in_process_output(op)
    if code != 0 or proc.stdout != text:
        return "child stdout differs from the in-process output"
    return None


STREAMS: dict = {
    "sweep-acceptance": sweep_stream,
    "verify-padic": verify_stream,
    "analyze-bigval": bigval_stream,
    "cli-cold": cold_stream,
}

CHECKS: dict = {
    "verify-padic": check_verify,
    "analyze-bigval": check_bigval,
}

IN_PROCESS = ("sweep-acceptance", "verify-padic", "analyze-bigval")


def take(stream: Iterator[Op], count: int) -> list:
    return [next(stream) for _ in range(count)]

