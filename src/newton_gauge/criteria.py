"""Factor-degree criteria driven by the dominant slope of the Newton polygon.

Given a validated input (polynomial f of degree n >= 2, prime p), the
engine looks for the strict dominant index s (the unique argmax of the
slope table) and derives the integer parameters

    c_s = v(a_n) - v(a_s)        c_n = v(a_n) - v(a_0)
    d   = gcd(|c_s|, n - s)      u   = n*c_s - (n - s)*c_n
    modulus = (n - s) / d

u equals n(n-s)(m_s - m_0) and is therefore positive whenever s != 0 is
strictly dominant; d always divides u.  Three certificates can result:

* theorem "T1" (tag "TA" when d = 1 and s != 0): requires u = d when
  s != 0, or d = 1 when s = 0.  Any factorization then has a factor of
  degree zero (with positive valuation, surfaced through content) or of
  degree a multiple of modulus.
* theorem "T2" (tag "TB" when d = 1): requires s != 0, u >= 2 and d a
  proper divisor of u.  Adds the alpha-split disjunct: some weighted
  degree difference a2*deg(f1) - a1*deg(f2) with a1 + a2 = u/d is
  divisible by modulus.
* theorem "Dumas-s0": s = 0 with d > 1.  The polygon is then a single
  segment, so every factor degree is a multiple of n/d.

When no strict dominant index exists, no certificate is emitted
(theorem "none") and the notes say why.  Everything is exact integer
arithmetic; no rationals are compared except in tests.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from .newton import NewtonPolygon, SlopeTable, newton_polygon, slope_table
from .polynomial import AnalysisInput, InternalError, _bind, _Value

__all__ = [
    "CriteriaParameters",
    "Irreducible",
    "DegreeZeroFactor",
    "FactorDegreeMultipleOf",
    "AlphaSplit",
    "Clause",
    "Certificate",
    "Analysis",
    "find_dominant_index",
    "compute_parameters",
    "check_theorem1",
    "check_theorem2",
    "dumas_degree_sets",
    "analyze",
]


class CriteriaParameters(_Value):
    """Integer data extracted at the dominant index s.

    Construction checks two consequences of the definitions above; a
    failure is an InternalError, since the parameters are computed, not
    given.
    """

    __slots__ = ("n", "s", "c_s", "c_n", "d", "u", "modulus")

    def __init__(self, n: int, s: int, c_s: int, c_n: int, d: int, u: int, modulus: int):
        if (n - s) % d != 0:
            raise InternalError("d must divide n - s")
        if s == 0 and (u != 0 or c_s != c_n):
            raise InternalError("s = 0 forces c_s = c_n and u = 0")
        _bind(self, "n", n)
        _bind(self, "s", s)
        _bind(self, "c_s", c_s)
        _bind(self, "c_n", c_n)
        _bind(self, "d", d)
        _bind(self, "u", u)
        _bind(self, "modulus", modulus)

    def as_dict(self) -> dict:
        """The fields by name, in field order (the report's key order)."""
        return {
            "n": self.n,
            "s": self.s,
            "c_s": self.c_s,
            "c_n": self.c_n,
            "d": self.d,
            "u": self.u,
            "modulus": self.modulus,
        }


class Irreducible(_Value):
    """Disjunct: the polynomial has no split into two nonconstant factors
    and its content carries no valuation."""

    __slots__ = ()
    kind = "Irreducible"


class DegreeZeroFactor(_Value):
    """Disjunct: a degree-zero factor of positive valuation exists, i.e.
    the content is divisible by the prime."""

    __slots__ = ()
    kind = "DegreeZeroFactor"


class FactorDegreeMultipleOf(_Value):
    """Disjunct: in any split f = f1*f2, some factor degree is 0 mod modulus."""

    __slots__ = ("modulus",)
    kind = "FactorDegreeMultipleOf"

    def __init__(self, modulus: int):
        _bind(self, "modulus", modulus)

    def satisfied_by_degrees(self, d1: int, d2: int) -> bool:
        return d1 % self.modulus == 0 or d2 % self.modulus == 0


class AlphaSplit(_Value):
    """Disjunct: exist a1, a2 >= 1 with a1 + a2 = total and
    a2*d1 - a1*d2 == 0 (mod modulus).

    Symmetric in (d1, d2): swapping the degrees corresponds to swapping
    (a1, a2), so the unordered check is well defined.
    """

    __slots__ = ("modulus", "total")
    kind = "AlphaSplit"

    def __init__(self, modulus: int, total: int):
        _bind(self, "modulus", modulus)
        _bind(self, "total", total)

    def satisfied_by_degrees(self, d1: int, d2: int) -> bool:
        # The condition is a1*(d1+d2) == total*d1 (mod modulus); its
        # solutions form one class mod modulus/g, so test the least
        # positive one against total-1.
        a = (d1 + d2) % self.modulus
        b = self.total * d1 % self.modulus
        g = math.gcd(a, self.modulus)
        if b % g != 0:
            return False
        period = self.modulus // g
        least = b // g * pow(a // g, -1, period) % period or period
        return least <= self.total - 1


Clause = Union[Irreducible, DegreeZeroFactor, FactorDegreeMultipleOf, AlphaSplit]


class Certificate(_Value):
    """Outcome of the criteria checks for one (polynomial, prime) input.

    theorem is one of "T1", "T2", "TA", "TB", "Dumas-s0", "none"; the
    TA/TB tags mark the d = 1, s != 0 specializations of T1/T2.  params
    is absent exactly when theorem is "none".  clauses is the
    disjunction any factorization must satisfy; notes give
    machine-readable reasons a check did not fire.  A tag or params
    that break these rules raise InternalError.
    """

    __slots__ = ("theorem", "params", "clauses", "notes")

    def __init__(
        self,
        theorem: str,
        params: Optional[CriteriaParameters],
        clauses: tuple[Clause, ...],
        notes: tuple[str, ...] = (),
    ):
        if theorem not in ("T1", "T2", "TA", "TB", "Dumas-s0", "none"):
            raise InternalError(f"unknown theorem tag {theorem!r}")
        if (params is None) != (theorem == "none"):
            raise InternalError("params must be present iff a theorem applies")
        _bind(self, "theorem", theorem)
        _bind(self, "params", params)
        _bind(self, "clauses", clauses)
        _bind(self, "notes", notes)

    @property
    def applies(self) -> bool:
        return self.theorem != "none"

    @property
    def base_theorem(self) -> str:
        """The tag with the d = 1 specializations folded back in."""
        return {"TA": "T1", "TB": "T2"}.get(self.theorem, self.theorem)


def find_dominant_index(table: SlopeTable) -> Optional[int]:
    """The unique index attaining the maximal slope, or None on a tie."""
    argmax = table.index_of_max
    if len(argmax) == 1:
        return argmax[0]
    return None


def compute_parameters(inp: AnalysisInput, s: int) -> CriteriaParameters:
    """Criteria parameters at the dominant index s, all in integer arithmetic."""
    table = slope_table(inp)
    n = table.degree
    vn = table.leading_valuation
    vs = next(e.valuation for e in table.entries if e.index == s)
    v0 = next(e.valuation for e in table.entries if e.index == 0)
    c_s = vn - vs
    c_n = vn - v0
    d = math.gcd(vs - vn, n - s)
    u = n * c_s - (n - s) * c_n
    return CriteriaParameters(
        n=n, s=s, c_s=c_s, c_n=c_n, d=d, u=u, modulus=(n - s) // d
    )


def _no_dominant_index_note(table: SlopeTable) -> str:
    ties = ",".join(str(i) for i in table.index_of_max)
    return f"no-strict-dominant-index: max slope {table.newton_index} at indices {ties}"


def check_theorem1(inp: AnalysisInput) -> Certificate:
    """Certificate from the first criterion, or "none" with reasons.

    Applies when s != 0 and u = d (any factor degree is then zero or a
    multiple of (n-s)/d), and when s = 0 with d = 1 (single-segment
    polygon with no interior lattice point: irreducible up to content).
    """
    table = slope_table(inp)
    s = find_dominant_index(table)
    if s is None:
        return Certificate("none", None, (), (_no_dominant_index_note(table),))
    params = compute_parameters(inp, s)
    if s == 0:
        if params.d == 1:
            return Certificate("T1", params, (Irreducible(), DegreeZeroFactor()))
        return Certificate(
            "none",
            None,
            (),
            (f"theorem1-s0-gcd-not-1: s=0 d={params.d}",),
        )
    if params.d == params.u:
        tag = "TA" if params.d == 1 else "T1"
        clauses = (
            Irreducible(),
            DegreeZeroFactor(),
            FactorDegreeMultipleOf(params.modulus),
        )
        return Certificate(tag, params, clauses)
    return Certificate(
        "none",
        None,
        (),
        (f"theorem1-condition-b-failed: d={params.d} u={params.u} (need d=u)",),
    )


def check_theorem2(inp: AnalysisInput) -> Certificate:
    """Certificate from the second criterion, or "none" with reasons.

    Applies when s != 0, u >= 2 and d is a proper divisor of u; the
    conclusion adds the alpha-split disjunct with total u/d.  For s = 0
    the criterion reduces to the first one, so this defers to
    :func:`check_theorem1`.
    """
    table = slope_table(inp)
    s = find_dominant_index(table)
    if s is None:
        return Certificate("none", None, (), (_no_dominant_index_note(table),))
    if s == 0:
        return check_theorem1(inp)
    params = compute_parameters(inp, s)
    if params.u >= 2 and params.u % params.d == 0 and params.d < params.u:
        tag = "TB" if params.d == 1 else "T2"
        clauses = (
            Irreducible(),
            DegreeZeroFactor(),
            FactorDegreeMultipleOf(params.modulus),
            AlphaSplit(params.modulus, params.u // params.d),
        )
        return Certificate(tag, params, clauses)
    return Certificate(
        "none",
        None,
        (),
        (
            f"theorem2-condition-b-failed: d={params.d} u={params.u}"
            " (need u>=2 and d a proper divisor of u)",
        ),
    )


def _dumas_s0_certificate(params: CriteriaParameters) -> Certificate:
    # s = 0 strictly dominant means every interior point lies strictly
    # above the chord from (0, v(a_0)) to (n, v(a_n)): the polygon is a
    # single segment, so factor degrees are multiples of n/d.
    clauses = (
        Irreducible(),
        DegreeZeroFactor(),
        FactorDegreeMultipleOf(params.modulus),
    )
    return Certificate("Dumas-s0", params, clauses)


def dumas_degree_sets(inp: AnalysisInput) -> tuple[tuple[int, int], ...]:
    """Factor-degree pairs (d1, d2), d1 <= d2, d1 + d2 = n, allowed by the polygon.

    The polygon of a product is the concatenation of the factors'
    polygons, so a factor's degree is a sum of per-edge contributions
    k*e where e is the edge's reduced slope denominator and k ranges
    over 0..(lattice length).  Subset sums over the edges give every
    achievable degree; pairing with the complement gives the set.
    Always contains (0, n).
    """
    polygon = newton_polygon(inp.poly, inp.prime)
    n = inp.degree
    achievable = {0}
    for edge in polygon.edges:
        g = math.gcd(edge.rise, edge.width)
        e = edge.width // g
        achievable = {a + k * e for a in achievable for k in range(g + 1)}
    return tuple(sorted({(min(a, n - a), max(a, n - a)) for a in achievable}))


class Analysis(_Value):
    """Everything the reporting layer needs about one input.

    Bundles the certificate with the slope table, polygon and Dumas
    degree pairs so downstream consumers never recompute geometry.
    """

    __slots__ = ("input", "table", "polygon", "certificate", "dumas_pairs")

    def __init__(
        self,
        input: AnalysisInput,
        table: SlopeTable,
        polygon: NewtonPolygon,
        certificate: Certificate,
        dumas_pairs: tuple[tuple[int, int], ...] = (),
    ):
        _bind(self, "input", input)
        _bind(self, "table", table)
        _bind(self, "polygon", polygon)
        _bind(self, "certificate", certificate)
        _bind(self, "dumas_pairs", dumas_pairs)


def analyze(inp: AnalysisInput) -> Analysis:
    """Run every criterion and keep the strongest applicable certificate.

    Precedence: T1 (covers the s = 0, d = 1 case), then T2, then the
    single-segment s = 0 fallback; "none" only when no strict dominant
    index exists.  Deterministic and pure.
    """
    table = slope_table(inp)
    polygon = newton_polygon(inp.poly, inp.prime)
    pairs = dumas_degree_sets(inp)
    s = find_dominant_index(table)
    if s is None:
        cert = Certificate("none", None, (), (_no_dominant_index_note(table),))
        return Analysis(inp, table, polygon, cert, pairs)

    cert1 = check_theorem1(inp)
    if cert1.applies:
        return Analysis(inp, table, polygon, cert1, pairs)
    cert2 = check_theorem2(inp)
    if cert2.applies:
        return Analysis(inp, table, polygon, cert2, pairs)
    params = compute_parameters(inp, s)
    if s == 0 and params.d > 1:
        return Analysis(inp, table, polygon, _dumas_s0_certificate(params), pairs)
    # Unreachable for a strict dominant index: d divides u, and u >= 1
    # when s != 0, so either u = d (T1) or u > d (T2).
    cert = Certificate("none", None, (), cert1.notes + cert2.notes)
    return Analysis(inp, table, polygon, cert, pairs)
