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
of the polygon's last edge (see ``newton``).  The parameters, the
decision and the degree pairs, bitmask subset sums, use integer
arithmetic only; a slope becomes text only in a "none" note.

Soundness.  By Dumas' theorem the polygon of a product is its factors'
polygons joined, so the degrees (a, n - a) of any split f = f1*f2 into
nonconstant factors are among the polygon's degree pairs.  Every
certificate that applies accepts each such pair with a > 0 by one of
its clauses, asked with the content not divisible by p; so it is sound
at any degree, with no factorization.  :class:`Analysis` checks this
when it is built, and a pair that no clause accepts is an InternalError.
Why the check holds:

* Let the last edge run from (s, v_s) to (n, v_n) on the line L.  Its
  slope is c/e in lowest terms with e = modulus, and its lattice length
  is d.  The edges left of s have smaller slopes, so at s != 0 each
  primitive vector (w, rho) on them has defect c*w - e*rho >= 1.  The
  defects add up to e*(v_0 - L(0)) = c*s - e*(v_s - v_0) = u/d =: r,
  so r = c*s (mod e).
* A factor takes k of the last edge's d primitive pieces and left
  pieces of total width t, so d1 = k*e + t = t (mod e).  Its defect is
  a1 = c*t (mod e), its cofactor's is a2 = r - a1 = c*(s - t) (mod e),
  and d2 = s - t (mod e).
* At t = 0 or t = s one degree is a multiple of e
  (FactorDegreeMultipleOf).  Otherwise both factors take a left piece,
  so a1, a2 >= 1 with a1 + a2 = r, and a2*d1 - a1*d2 =
  c*(s - t)*t - c*t*(s - t) = 0 (mod e): AlphaSplit(e, r) accepts.
* At r = 1 (T1, TA) the left part is a single primitive piece, so t is
  0 or s and no AlphaSplit is needed.  At s = 0 the polygon is the one
  edge, so every factor degree is a multiple of e = n/d (Dumas-s0); at
  d = 1 no pair has a > 0 (T1, irreducible up to content).
"""

from __future__ import annotations

import math
from typing import Optional, Union

from .newton import NewtonPolygon, SlopeTable, newton_polygon, slope_table
from .polynomial import AnalysisInput, InternalError, _bind, _Value
from .valuation import format_slope

__all__ = [
    "THEOREM_TAGS",
    "CriteriaParameters",
    "Irreducible",
    "DegreeZeroFactor",
    "FactorDegreeMultipleOf",
    "AlphaSplit",
    "Clause",
    "Certificate",
    "Analysis",
    "AnalysisMemo",
    "find_dominant_index",
    "compute_parameters",
    "check_theorem1",
    "check_theorem2",
    "dumas_degree_sets",
    "analyze",
]

# The certificate tags, in report order.
THEOREM_TAGS = ("T1", "TA", "T2", "TB", "Dumas-s0", "none")


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
        return split is not None and (split[0] % self.modulus == 0 or split[1] % self.modulus == 0)


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

    theorem is one of THEOREM_TAGS; the TA/TB tags mark the d = 1,
    s != 0 specializations of T1/T2.  params is absent exactly when
    theorem is "none".  clauses is the disjunction any factorization
    must satisfy; notes give machine-readable reasons a check did not
    fire.  A tag or params that break these rules raise InternalError.
    """

    __slots__ = ("theorem", "params", "clauses", "notes")

    def __init__(
        self,
        theorem: str,
        params: Optional[CriteriaParameters],
        clauses: tuple[Clause, ...],
        notes: tuple[str, ...] = (),
    ):
        if theorem not in THEOREM_TAGS:
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
    vs = next(v for i, v in table.entries if i == s)
    v0 = table.entries[0][1]  # a_0 != 0, so index 0 comes first
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
        top = format_slope(*table.newton_index)
        return _none(f"no-strict-dominant-index: max slope {top} at indices {ties}")
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
    denominator and 0 <= k <= its lattice length.  Bit a of ``sums`` is
    set when a is such a subset sum.  The polygon spans 0..n (a_0 != 0),
    so the edges' terms add up to n and a is a sum iff n - a is: the
    pairs (a, n - a) with a <= n/2 give the set; it always holds (0, n).
    """
    sums = 1
    vertices = polygon.vertices
    for (i0, v0), (i1, v1) in zip(vertices, vertices[1:]):
        g = math.gcd(v1 - v0, i1 - i0)
        e = (i1 - i0) // g
        # {0, ..., g} = {0, 1} + {0, 2} + {0, 4} + ... + {0, rest}: the
        # multiples k*e, 0 <= k <= g, are added in O(log g) shifts.
        step = 1
        while step <= g:
            sums |= sums << step * e
            g -= step
            step *= 2
        if g:
            sums |= sums << g * e
    bits = format(sums, "b")[::-1]
    return tuple((a, n - a) for a in range(n // 2 + 1) if bits[a] == "1")


class Analysis(_Value):
    """Everything the reporting layer needs about one input.

    Bundles the certificate with the slope table, polygon and Dumas
    degree pairs so downstream consumers never recompute geometry.
    Construction checks the soundness invariant of the module docstring:
    a certificate that applies accepts every pair (a, n - a) with a > 0.
    A pair that no clause accepts is an InternalError; the message names
    the tag, the parameters and the pair, never the polynomial, whose
    text can pass Python's int-to-str limit.
    """

    __slots__ = ("input", "table", "polygon", "certificate", "dumas_pairs")

    def __init__(
        self,
        input: AnalysisInput,
        table: SlopeTable,
        polygon: NewtonPolygon,
        certificate: Certificate,
        dumas_pairs: tuple[tuple[int, int], ...],
    ):
        if certificate.applies:
            # One pass per clause over the pairs still refused, from the
            # last clause: the degree clauses, which accept splits, are last.
            refused = [pair for pair in dumas_pairs if pair[0]]
            for clause in reversed(certificate.clauses):
                if not refused:
                    break
                refused = [pair for pair in refused if not clause.accepts(pair, False)]
            if refused:
                raise InternalError(
                    f"the {certificate.theorem} certificate with parameters"
                    f" {certificate.params.as_dict()} refuses the split"
                    f" {refused[0]}, which the polygon allows"
                )
        _bind(self, "input", input)
        _bind(self, "table", table)
        _bind(self, "polygon", polygon)
        _bind(self, "certificate", certificate)
        _bind(self, "dumas_pairs", dumas_pairs)


# How many polygon points and degree pairs, together, one AnalysisMemo
# may store: about 1 MB whatever the corpus's degree (CPython 3.11).  It
# holds the exhaustive acceptance box's 480 tables (3,312) and one table
# for every example1 n (5,727 for n <= 142).
_MEMO_ROOM = 8192


class AnalysisMemo(dict):
    """What :func:`analyze` derived per slope table, for equal tables to reuse.

    Maps a table's fields to its (polygon, certificate, degree pairs).
    ``room`` is how many more polygon points and degree pairs it may
    store: it starts at ``_MEMO_ROOM``, and a table that does not fit is
    not stored, so a dense high-degree table never is.
    """

    def __init__(self) -> None:
        super().__init__()
        self.room = _MEMO_ROOM


def analyze(inp: AnalysisInput, memo: Optional[AnalysisMemo] = None) -> Analysis:
    """Build one slope table and one polygon: the certificate is read from
    the table, the degree pairs from the polygon.

    The certificate follows the decision table in the module docstring;
    "none" only when no strict dominant index exists.  The returned
    :class:`Analysis` has proved the certificate from the degree pairs,
    so it is sound at any degree; a certificate that would refuse a
    split the polygon allows raises InternalError.  Deterministic.

    Without a memo it is pure.  With one, which a caller keeps across
    inputs, it is not: the polygon, certificate and degree pairs are
    stored in the memo under the slope table's fields while it has
    room, since they depend on the table's points alone, and an equal
    table later reuses them without a second valuation pass or a hull.
    Every input still builds its own slope table and :class:`Analysis`,
    so the containment check runs for each.
    """
    table = slope_table(inp)
    # Keyed by the table's fields, a plain tuple that hashes faster than
    # the table itself: equal keys are equal tables.
    key = (table.degree, table.leading_valuation, table.entries)
    derived = None if memo is None else memo.get(key)
    if derived is None:
        polygon = newton_polygon(inp.poly, inp.prime)
        pairs = _degree_pairs(polygon, inp.degree)
        derived = polygon, _certify(table), pairs
        size = len(polygon.points) + len(pairs)
        if memo is not None and size <= memo.room:
            memo[key] = derived
            memo.room -= size
    return Analysis(inp, table, *derived)
