"""Factor-degree criteria driven by the dominant slope of the Newton polygon.

Given a validated input (polynomial f of degree n >= 2, prime p), the
engine looks for the strict dominant index s (the unique argmax of the
slope table) and derives the integer parameters

    c_s = v(a_n) - v(a_s)        c_n = v(a_n) - v(a_0)
    d   = gcd(|c_s|, n - s)      u   = n*c_s - (n - s)*c_n
    modulus = (n - s) / d

u equals n(n-s)(m_s - m_0), so u = 0 at s = 0; for a strictly dominant
s != 0 it is positive, and d always divides it, so u >= d there.  The
certificate is read from one decision table:

    no strict dominant s    "none", with a note saying why
    s = 0,  d = 1           "T1"
    s = 0,  d > 1           "Dumas-s0"
    s != 0, u = d           "T1", tagged "TA" when d = 1
    s != 0, u > d           "T2", tagged "TB" when d = 1

Its clauses are the disjunction any factorization must satisfy: always
Irreducible or DegreeZeroFactor (content divisible by p); except for
the s = 0 "T1", also FactorDegreeMultipleOf(modulus); for "T2", also
AlphaSplit(modulus, u/d), i.e. some a2*deg(f1) - a1*deg(f2) with
a1 + a2 = u/d is divisible by modulus.  At s = 0 every interior point
lies strictly above the chord from (0, v(a_0)) to (n, v(a_n)), so the
polygon is a single segment.  The slope table finds s once, comparing
cross-multiplied integers, and the Newton index it reports is the slope
of the polygon's last edge (see ``newton``); the parameters and the
decision use integer arithmetic only.
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
        return {name: getattr(self, name) for name in self._fields}


# A clause decides what it accepts: accepts(split, content_divisible) is
# asked with the degree pair of each bipartition of a witness's factors,
# or with None when the witness has a single factor.  The report fills a
# clause's fields into its text.


class Irreducible(_Value):
    """Disjunct: the polynomial has no split into two nonconstant factors
    and its content carries no valuation."""

    __slots__ = ()
    kind = "Irreducible"
    text = "the polynomial is irreducible (content carries no valuation)"

    def accepts(self, split: Optional[tuple[int, int]], content_divisible: bool) -> bool:
        return split is None and not content_divisible


class DegreeZeroFactor(_Value):
    """Disjunct: a degree-zero factor of positive valuation exists, i.e.
    the content is divisible by the prime."""

    __slots__ = ()
    kind = "DegreeZeroFactor"
    text = "a degree-zero factor has positive valuation (content divisible by the prime)"

    def accepts(self, split: Optional[tuple[int, int]], content_divisible: bool) -> bool:
        return content_divisible


class FactorDegreeMultipleOf(_Value):
    """Disjunct: in any split f = f1*f2, some factor degree is 0 mod modulus."""

    __slots__ = ("modulus",)
    kind = "FactorDegreeMultipleOf"
    text = "some factor degree is a multiple of {modulus}"

    def __init__(self, modulus: int):
        _bind(self, "modulus", modulus)

    def accepts(self, split: Optional[tuple[int, int]], content_divisible: bool) -> bool:
        return split is not None and any(d % self.modulus == 0 for d in split)


class AlphaSplit(_Value):
    """Disjunct: exist a1, a2 >= 1 with a1 + a2 = total and
    a2*d1 - a1*d2 == 0 (mod modulus).

    Symmetric in (d1, d2): swapping the degrees corresponds to swapping
    (a1, a2), so the unordered check is well defined.
    """

    __slots__ = ("modulus", "total")
    kind = "AlphaSplit"
    text = (
        "a2*deg(f1) - a1*deg(f2) is divisible by {modulus}"
        " for some a1, a2 >= 1 with a1 + a2 = {total}"
    )

    def __init__(self, modulus: int, total: int):
        _bind(self, "modulus", modulus)
        _bind(self, "total", total)

    def accepts(self, split: Optional[tuple[int, int]], content_divisible: bool) -> bool:
        if split is None:
            return False
        d1, d2 = split
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


def _parameters(table: SlopeTable, s: int) -> CriteriaParameters:
    n = table.degree
    vn = table.leading_valuation
    vs = next(e.valuation for e in table.entries if e.index == s)
    v0 = table.entries[0].valuation  # a_0 != 0, so index 0 comes first
    c_s = vn - vs
    c_n = vn - v0
    d = math.gcd(vs - vn, n - s)
    u = n * c_s - (n - s) * c_n
    return CriteriaParameters(
        n=n, s=s, c_s=c_s, c_n=c_n, d=d, u=u, modulus=(n - s) // d
    )


def compute_parameters(inp: AnalysisInput, s: int) -> CriteriaParameters:
    """Criteria parameters at the dominant index s, all in integer arithmetic."""
    return _parameters(slope_table(inp), s)


def _none(note: str) -> Certificate:
    return Certificate("none", None, (), (note,))


def _certify(table: SlopeTable) -> Certificate:
    """The certificate of the module docstring's decision table."""
    s = find_dominant_index(table)
    if s is None:
        ties = ",".join(str(i) for i in table.index_of_max)
        return _none(f"no-strict-dominant-index: max slope {table.newton_index} at indices {ties}")
    params = _parameters(table, s)
    d, u = params.d, params.u
    if s == 0 and d == 1:
        return Certificate("T1", params, (Irreducible(), DegreeZeroFactor()))
    clauses = (Irreducible(), DegreeZeroFactor(), FactorDegreeMultipleOf(params.modulus))
    if s == 0:
        return Certificate("Dumas-s0", params, clauses)
    if u < d or u % d != 0:
        raise InternalError(
            f"a strict dominant s != 0 needs d | u and u >= 1, got s={s} d={d} u={u}"
        )
    if u == d:
        return Certificate("TA" if d == 1 else "T1", params, clauses)
    alpha = AlphaSplit(params.modulus, u // d)
    return Certificate("TB" if d == 1 else "T2", params, clauses + (alpha,))


def _refusal(params: CriteriaParameters, condition_b: str) -> Certificate:
    # At s = 0 both criteria ask for d = 1, so the first criterion's note.
    if params.s == 0:
        return _none(f"theorem1-s0-gcd-not-1: s=0 d={params.d}")
    return _none(condition_b)


def check_theorem1(inp: AnalysisInput) -> Certificate:
    """Certificate from the first criterion, or "none" with reasons.

    Applies when s != 0 and u = d (any factor degree is then zero or a
    multiple of (n-s)/d), and when s = 0 with d = 1 (single-segment
    polygon with no interior lattice point: irreducible up to content).
    """
    cert = _certify(slope_table(inp))
    if cert.base_theorem in ("T1", "none"):
        return cert
    params = cert.params
    return _refusal(params, f"theorem1-condition-b-failed: d={params.d} u={params.u} (need d=u)")


def check_theorem2(inp: AnalysisInput) -> Certificate:
    """Certificate from the second criterion, or "none" with reasons.

    Applies when s != 0, u >= 2 and d is a proper divisor of u; the
    conclusion adds the alpha-split disjunct with total u/d.  For s = 0
    the criterion reduces to the first one, so the answer is the first
    criterion's.
    """
    cert = _certify(slope_table(inp))
    if cert.base_theorem in ("T2", "none") or (cert.theorem == "T1" and cert.params.s == 0):
        return cert
    params = cert.params
    return _refusal(
        params,
        f"theorem2-condition-b-failed: d={params.d} u={params.u}"
        " (need u>=2 and d a proper divisor of u)",
    )


def dumas_degree_sets(inp: AnalysisInput) -> tuple[tuple[int, int], ...]:
    """Factor-degree pairs (d1, d2), d1 <= d2, d1 + d2 = n, allowed by the polygon."""
    return _degree_pairs(newton_polygon(inp.poly, inp.prime), inp.degree)


def _degree_pairs(polygon: NewtonPolygon, n: int) -> tuple[tuple[int, int], ...]:
    """The degree pairs of :func:`dumas_degree_sets`, read from a built polygon.

    A product's polygon concatenates its factors' polygons, so a factor's
    degree is a sum of per-edge terms k*e, with e the edge's reduced slope
    denominator and 0 <= k <= its lattice length.  The subset sums, paired
    with their complements, give the set; it always contains (0, n).
    """
    achievable = {0}
    vertices = polygon.vertices
    for (i0, v0), (i1, v1) in zip(vertices, vertices[1:]):
        g = math.gcd(v1 - v0, i1 - i0)
        e = (i1 - i0) // g
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
    """Build one slope table and one polygon: the certificate is read from
    the table, the degree pairs from the polygon.

    The certificate follows the decision table in the module docstring;
    "none" only when no strict dominant index exists.  Deterministic and
    pure.
    """
    table = slope_table(inp)
    polygon = newton_polygon(inp.poly, inp.prime)
    return Analysis(inp, table, polygon, _certify(table), _degree_pairs(polygon, inp.degree))
