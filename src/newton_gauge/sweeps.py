"""Corpus and family sweeps: the whole pipeline over many polynomials.

A sweep analyzes every polynomial of a corpus under each prime, factors
it with the oracle (:mod:`newton_gauge.oracle`) at most once, verifies
each certificate against the witness and runs deep self-checks on a 1%
deterministic slice.  Each analysis has already proved its certificate
from the polygon's degree pairs (see :mod:`newton_gauge.criteria`), with
or without the oracle, so what the oracle checks is the polygon itself.
Each failed check is a :class:`Violation` with a single-line JSON
reproduction bundle, which writes certificates, witnesses and closed
forms as :mod:`newton_gauge.report` does.  A family sweep does the same
over a built-in family (:mod:`newton_gauge.families`) and also checks
each instance's parameters against the family's closed form.

The polygon, certificate and degree pairs depend only on the slope
table's points, and a corpus repeats few tables: the exhaustive
acceptance corpus (degrees 2-5, |a_i| <= 3, p in {2, 3}) has 480 in
201,600 entries, and a family cell has one.  So each sweep call keeps
one :class:`criteria.AnalysisMemo`, passed to every
``criteria.analyze``, that derives them once per table and reuses them
for every equal table; only the slope table and the
:class:`criteria.Analysis`, with its containment check, are built per
entry.  The memo lives as long as the call and stores at most
``criteria._MEMO_ROOM`` polygon points and degree pairs, so a
high-degree corpus, which repeats no table, keeps little or nothing.

Only sweeps import this module, so a cold ``verify`` never compiles it.
The functions that ``bench/tracer.py`` traces (``criteria.analyze``,
``newton.newton_index`` and the oracle's) are looked up on their
modules at each call, so a rebinding there is always seen.
"""

from __future__ import annotations

import functools
import itertools
import random
import zlib
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import criteria, newton, oracle, report
from .criteria import THEOREM_TAGS, Analysis
from .oracle import FactorizationWitness
from .polynomial import (
    MAX_PARSED_EXPONENT,
    AnalysisInput,
    InvalidInputError,
    OracleBudgetError,
    Polynomial,
    _bind,
    _require_prime,
    _Value,
)
from .valuation import format_slope

__all__ = [
    "Violation",
    "SweepSummary",
    "MAX_EXHAUSTIVE_POLYNOMIALS",
    "MAX_FAMILY_COEFF_BITS",
    "exhaustive_polynomials",
    "sampled_polynomials",
    "sweep",
    "sweep_family",
]

# About ten times the acceptance corpus (degrees 2-5, |a_i| <= 3: 100,800
# polynomials); larger corpora are for --sample.
MAX_EXHAUSTIVE_POLYNOMIALS = 10**6
# Bits an example1 top coefficient (p - 1) p^(n(n-3)-1) may have: n <= 142
# at p = 2, which still reaches past Python's 4,300-digit int-to-str limit.
MAX_FAMILY_COEFF_BITS = 20_000


class Violation(_Value):
    """One failed check; its detail is a JSON-ready reproduction bundle."""

    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: dict):
        _bind(self, "kind", kind)
        _bind(self, "detail", detail)


class SweepSummary(_Value):
    """Aggregated, order-independent counters for one sweep run.

    Unlike the other value classes it is mutable, since a sweep adds to
    it entry by entry, and so it is unhashable.
    """

    __slots__ = (
        "corpus", "total", "certificates", "verified", "budget_errors",
        "spot_checks", "violations", "family_rows",
    )
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        corpus: dict,
        total: int = 0,
        certificates: dict | None = None,
        verified: int = 0,
        budget_errors: int = 0,
        spot_checks: int = 0,
        violations: list | None = None,
        family_rows: list | None = None,
    ):
        self.corpus = corpus
        self.total = total
        self.certificates = dict.fromkeys(THEOREM_TAGS, 0) if certificates is None else certificates
        self.verified = verified
        self.budget_errors = budget_errors
        self.spot_checks = spot_checks
        self.violations = [] if violations is None else violations
        self.family_rows = [] if family_rows is None else family_rows

    @property
    def passed(self) -> bool:
        return not self.violations


def exhaustive_polynomials(
    max_degree: int, coeff_bound: int, min_degree: int = 2
) -> Iterator[Polynomial]:
    """Every polynomial with min_degree <= deg <= max_degree,
    |coefficients| <= coeff_bound and nonzero end coefficients,
    in (degree, lexicographic) order."""
    ends = [c for c in range(-coeff_bound, coeff_bound + 1) if c != 0]
    mids = list(range(-coeff_bound, coeff_bound + 1))
    for n in range(min_degree, max_degree + 1):
        for a0 in ends:
            for middle in itertools.product(mids, repeat=n - 1):
                for an in ends:
                    yield Polynomial((a0, *middle, an))


def _capped_corpus_size(max_degree: int, coeff_bound: int, min_degree: int) -> int:
    """Size of the exhaustive corpus, (2B)^2 (2B+1)^(n-1) polynomials of
    degree n, or MAX_EXHAUSTIVE_POLYNOMIALS + 1 once it passes the cap.

    A degree holds at least 4*3^(n-1) polynomials, so the loop stops
    after a dozen degrees however large max_degree is.
    """
    cap = MAX_EXHAUSTIVE_POLYNOMIALS
    size, per_degree = 0, (2 * coeff_bound) ** 2
    for n in range(1, max_degree + 1):
        if n >= min_degree:
            size += per_degree
        if size > cap or per_degree > cap:
            return cap + 1
        per_degree *= 2 * coeff_bound + 1
    return size


def sampled_polynomials(
    max_degree: int, coeff_bound: int, count: int, seed: int, min_degree: int = 2
) -> list[Polynomial]:
    """Deterministic random corpus with nonzero end coefficients."""
    rng = random.Random(seed)
    ends = [c for c in range(-coeff_bound, coeff_bound + 1) if c != 0]
    out = []
    for _ in range(count):
        n = rng.randint(min_degree, max_degree)
        coeffs = [rng.choice(ends)]
        coeffs.extend(rng.randint(-coeff_bound, coeff_bound) for _ in range(n - 1))
        coeffs.append(rng.choice(ends))
        out.append(Polynomial(coeffs))
    return out


# Orders (rise, width) slopes, width > 0, by value.
_slope_key = functools.cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _spot_check(
    f: Polynomial, witness: FactorizationWitness, budget: int | None = None
) -> list[Violation]:
    """Deep self-check: the witness multiplies back to f, so every sub-multiset
    of its factors divides f; each distinct factor re-factors to itself,
    under the oracle's budget (read from the environment when not given)."""
    if witness._product != f:
        found = [{"product": str(witness._product)}]
    else:
        re_runs = {g: oracle.kronecker_factor(g, budget) for g in dict.fromkeys(witness.factors) if g.degree >= 2}
        found = [
            {"factor": str(g), "refactored": [str(h) for h in r.factors]}
            for g, r in re_runs.items()
            if (r.sign, r.content, r.factors) != (1, 1, (g,))
        ]
    if not found:
        return []
    # The bundle is built only here: passing checks never need it.
    repro = {"polynomial": str(f), "factors": [str(g) for g in witness.factors]}
    return [Violation("irreducibility-spot-check", {**repro, **extra}) for extra in found]


def _sweep_entry(
    summary: SweepSummary,
    f: Polynomial,
    primes: Sequence[int],
    verify: bool,
    memo: criteria.AnalysisMemo | None = None,
    family: tuple[dict, dict] | None = None,
    budget: Callable[[], int] = oracle.oracle_budget,
) -> None:
    """Analyze one polynomial under every prime, factoring it at most once;
    the analyses fill and reuse the sweep's memo (see :func:`criteria.analyze`),
    and `budget()` gives the oracle's cap, which a sweep reads once.  A
    family instance passes its closed form and its name as `family`."""
    witness: FactorizationWitness | None = None
    witness_failed = False
    for p in primes:
        summary.total += 1
        analysis = criteria.analyze(AnalysisInput(f, p), memo)
        cert = analysis.certificate
        summary.certificates[cert.theorem] += 1
        if family is not None:
            summary.violations.extend(_family_violations(analysis, *family))
        if not cert.applies or not verify:
            continue
        if witness is None and not witness_failed:
            try:
                witness = oracle.kronecker_factor(f, budget())
            except OracleBudgetError:
                witness_failed = True
        if witness_failed:
            summary.budget_errors += 1
            continue
        outcome = oracle.verify_certificate(f, p, cert, witness)
        summary.verified += 1
        found = []
        if not outcome.passed:
            failed = [list(c.degrees) for c in outcome.bipartitions if not c.satisfied]
            found.append(("certificate", {"failed_bipartitions": failed}))
        bad_pairs = oracle.check_dumas_consistency(analysis.dumas_pairs, witness)
        if bad_pairs:
            missing = [list(q) for q in bad_pairs]
            allowed = [list(q) for q in analysis.dumas_pairs]
            found.append(("dumas", {"missing_pairs": missing, "allowed": allowed}))
        # Slopes in lowest terms: equal exactly when equal as pairs.
        index_from_factors = max(
            (newton.newton_index(g, p) for g in set(witness.factors)), key=_slope_key
        )
        if index_from_factors != analysis.table.newton_index:
            direct = format_slope(*analysis.table.newton_index)
            extra = {"from_factors": format_slope(*index_from_factors), "direct": direct}
            found.append(("index-multiplicativity", extra))
        if found:
            # The bundle is built only here: passing entries never need it.
            repro = {
                "polynomial": str(f),
                "prime": p,
                "certificate": report.certificate_dict(cert),
                "witness": report.witness_dict(witness),
            }
            summary.violations.extend(Violation(kind, {**repro, **extra}) for kind, extra in found)
    # A witness exists only when f's coefficients are within the oracle's
    # limits, so repr() cannot pass Python's int-to-str limit.
    if witness is not None and zlib.crc32(repr(f.coeffs).encode()) % 100 == 0:
        try:
            summary.violations.extend(_spot_check(f, witness, budget()))
        except OracleBudgetError:  # a factor's search can cost more than f's
            summary.budget_errors += 1
        else:
            summary.spot_checks += 1


def _family_violations(analysis: Analysis, expected: dict, instance: dict) -> list[Violation]:
    """The family-parameters violation of one instance, if its analysis
    departs from the family's closed form.  Its bundle names the instance
    (see :func:`sweep_family`) and never prints it, since the text of a
    large instance can pass Python's int-to-str limit."""

    def violation(extra: dict) -> list[Violation]:
        # The bundle is built only here: passing instances never need it.
        repro = {**instance, "expected": report.closed_form_dict(expected)}
        return [Violation("family-parameters", {**repro, **extra})]

    cert = analysis.certificate
    actual = {"theorem": cert.theorem}
    if cert.params is not None:
        actual.update(cert.params.as_dict())
    # The closed form's ints are the tag and the parameters; its pairs are slopes.
    if any(actual.get(k) != v for k, v in expected.items() if not isinstance(v, tuple)):
        return violation({"actual": report.certificate_dict(cert)})
    for key, index in (("m_s", actual["s"]), ("m_0", 0), ("m_2", 2)):
        if key not in expected:
            continue
        slope = analysis.table.slope_at(index)
        if slope != expected[key]:
            return violation({"slope_index": index, "actual_slope": format_slope(*slope)})
    return []


def _require_distinct(values: Sequence[int], name: str) -> None:
    """Refuse an empty axis, which checks nothing, and a repeated value,
    whose entries would be analysed and counted twice."""
    if not values:
        raise InvalidInputError(f"{name} must not be empty", name)
    if len(set(values)) < len(values):
        raise InvalidInputError(f"{name} must not repeat a value, got {list(values)}", name)


def sweep(
    max_degree: int,
    coeff_bound: int,
    primes: Sequence[int],
    *,
    min_degree: int = 2,
    sample: int | None = None,
    seed: int | None = None,
    verify: bool = True,
) -> SweepSummary:
    """Analyze and verify a corpus of polynomials; returns counters and violations.

    Exhaustive over degrees min_degree..max_degree with bounded
    coefficients and nonzero end coefficients unless `sample` is given,
    in which case that many polynomials are drawn with the generator
    seeded by `seed` (0 when not given); a seed without a sample is
    refused.  Every certificate is verified against the brute-force
    factorization, under the budget of :func:`oracle_budget`, read once
    at the sweep's first oracle call, and deep self-checks run on a 1%
    deterministic slice; every analysis proves its certificate from the
    polygon's degree pairs whether or not it is verified.  Raises
    InvalidInputError, naming the argument,
    when the corpus would be empty or would hold polynomials of degree
    below 2, when primes holds a non-prime, is empty or repeats a value,
    before enumerating an exhaustive corpus past
    MAX_EXHAUSTIVE_POLYNOMIALS, and when a sample's max_degree passes
    the parser's degree limit MAX_PARSED_EXPONENT.
    """
    for p in primes:
        _require_prime(p, "primes")
    _require_distinct(primes, "primes")
    if min_degree < 2:
        raise InvalidInputError(f"min_degree must be at least 2, got {min_degree}", "min_degree")
    if min_degree > max_degree:
        raise InvalidInputError(
            f"min_degree ({min_degree}) must not exceed max_degree ({max_degree})",
            "min_degree",
            "max_degree",
        )
    if coeff_bound < 1:
        raise InvalidInputError(f"coeff_bound must be at least 1, got {coeff_bound}", "coeff_bound")
    if seed is not None and sample is None:
        raise InvalidInputError("seed is used only with a sample", "seed")
    if sample is not None and sample < 1:
        raise InvalidInputError(f"sample must be at least 1, got {sample}", "sample")
    if sample is not None and max_degree > MAX_PARSED_EXPONENT:
        raise InvalidInputError(
            f"max_degree must not exceed {MAX_PARSED_EXPONENT}, the parser's degree"
            f" limit, got {max_degree}",
            "max_degree",
        )
    if sample is None and (
        _capped_corpus_size(max_degree, coeff_bound, min_degree) > MAX_EXHAUSTIVE_POLYNOMIALS
    ):
        raise InvalidInputError(
            f"the exhaustive corpus of degrees {min_degree}-{max_degree} with"
            f" coeff_bound {coeff_bound} holds more than"
            f" {MAX_EXHAUSTIVE_POLYNOMIALS} polynomials; use --sample to draw"
            " a random subset",
            "max_degree",
            "coeff_bound",
        )
    corpus = {
        "min_degree": min_degree,
        "max_degree": max_degree,
        "coeff_bound": coeff_bound,
        "primes": list(primes),
        "mode": "exhaustive" if sample is None else "sample",
    }
    if sample is not None:
        corpus["sample"] = sample
        corpus["seed"] = seed = 0 if seed is None else seed
        polys: Iterable[Polynomial] = sampled_polynomials(
            max_degree, coeff_bound, sample, seed, min_degree
        )
    else:
        polys = exhaustive_polynomials(max_degree, coeff_bound, min_degree)
    summary = SweepSummary(corpus=corpus)
    memo = criteria.AnalysisMemo()
    budget = functools.cache(oracle.oracle_budget)
    for f in polys:
        _sweep_entry(summary, f, primes, verify, memo, budget=budget)
    return summary


def sweep_family(
    family: str,
    values: Sequence[int],
    primes: Sequence[int],
    *,
    verify: bool = True,
) -> SweepSummary:
    """Sweep one built-in family, checking parameters against closed forms.

    `values` holds n's for example1 and d's for example2.  Each
    instance's certificate parameters must match the family's closed
    form exactly; rows summarizing each (value, prime) cell are
    collected for reporting.  A violation names its instance by family,
    parameter, prime and its 0-based position in the cell's enumeration:
    ``families.example1_instances(n, p)`` order, and 0 for example2,
    whose cell holds one instance.  The oracle's budget is read once, as in
    :func:`sweep`.  Raises InvalidInputError when primes holds
    a non-prime, when values or primes is empty or repeats a value, and
    before building any instance when the corpus holds more than
    MAX_EXHAUSTIVE_POLYNOMIALS (example1 has (p-1)^4 per (n, p) cell),
    when a value's degree passes the parser's limit MAX_PARSED_EXPONENT
    (example2 needs d <= 999), or when an example1 top coefficient
    (p-1) p^(n(n-3)-1) has more than MAX_FAMILY_COEFF_BITS bits.
    """
    from . import families

    if family not in families.FAMILIES:
        raise InvalidInputError(
            f"unknown family {family!r} (expected one of {families.FAMILIES})", "family"
        )
    example1 = family == "example1"
    value_name = "n" if example1 else "d"
    for p in primes:
        _require_prime(p, "primes")
    _require_distinct(values, value_name)
    _require_distinct(primes, "primes")
    per_value = sum((p - 1) ** 4 for p in primes) if example1 else len(primes)
    size = len(values) * per_value
    if size > MAX_EXHAUSTIVE_POLYNOMIALS:
        raise InvalidInputError(
            f"the {family} corpus holds {size} polynomials, more than"
            f" {MAX_EXHAUSTIVE_POLYNOMIALS}; pass fewer values or smaller primes",
            value_name,
            "primes",
        )
    for value in values:
        degree = value if example1 else value * (value + 1)
        if degree > MAX_PARSED_EXPONENT:
            raise InvalidInputError(
                f"{value_name} = {value} gives degree {degree}, more than the"
                f" parser's degree limit {MAX_PARSED_EXPONENT}",
                value_name,
            )
        if not example1:
            continue
        # p^e has more than e (bits(p) - 1) bits, so p^e is built only when small.
        e = max(value * (value - 3) - 1, 0)
        for p in primes:
            if e * (p.bit_length() - 1) >= MAX_FAMILY_COEFF_BITS or (
                ((p - 1) * p**e).bit_length() > MAX_FAMILY_COEFF_BITS
            ):
                raise InvalidInputError(
                    f"n = {value} at p = {p} gives a top coefficient of more than"
                    f" {MAX_FAMILY_COEFF_BITS} bits",
                    "n",
                    "primes",
                )
    summary = SweepSummary(
        corpus={"family": family, "values": list(values), "primes": list(primes)}
    )
    expected_of = families.example1_expected if example1 else families.example2_expected
    memo = criteria.AnalysisMemo()
    budget = functools.cache(oracle.oracle_budget)
    for value in values:
        expected = expected_of(value)
        closed_form = report.closed_form_dict(expected)
        for p in primes:
            if example1:
                instances: Iterable[Polynomial] = families.example1_instances(value, p)
            else:
                instances = (families.example2_polynomial(value, p),)
            before = len(summary.violations)
            count = 0
            for f in instances:
                name = {"family": family, "parameter": value, "prime": p, "instance": count}
                _sweep_entry(summary, f, [p], verify, memo, family=(expected, name), budget=budget)
                count += 1
            row = {"family": family, "parameter": value, "prime": p, "instances": count}
            row.update(
                (key, closed_form[key]) for key in ("s", "u", "d", "modulus", "theorem", "m_s", "m_0")
            )
            row["matches_closed_form"] = len(summary.violations) == before
            summary.family_rows.append(row)
    return summary
