"""Exact Newton-polygon analysis of integer polynomials.

Given a polynomial with integer coefficients and a prime p, this
package computes the p-adic valuation points and their lower convex
hull, the slope table and Newton index as exact integer pairs, and emits
certificates constraining the degrees any factorization can have.  A
brute-force Kronecker factorization oracle verifies every certificate
at desk scale.

Importing the package loads the analysis modules only.  The oracle's
names (``kronecker_factor``, ``verify_certificate`` and the rest of
``_ORACLE_NAMES``) and the sweeps' (``sweep``, ``sweep_family`` and
``SweepSummary``, from ``sweeps.py``) are resolved on first access
through a module ``__getattr__`` (PEP 562).  So ``newton-gauge
analyze`` never imports or compiles ``oracle.py``, and ``newton-gauge
verify`` never compiles ``sweeps.py``.
"""

from .criteria import (
    AlphaSplit,
    Analysis,
    Certificate,
    CriteriaParameters,
    DegreeZeroFactor,
    FactorDegreeMultipleOf,
    Irreducible,
    analyze,
    check_theorem1,
    check_theorem2,
    compute_parameters,
    dumas_degree_sets,
    find_dominant_index,
)
from .newton import (
    NewtonPolygon,
    SlopeTable,
    lower_convex_hull,
    newton_index,
    newton_polygon,
    slope_table,
    valuation_points,
)
from .polynomial import (
    AnalysisInput,
    InternalError,
    InvalidInputError,
    OracleBudgetError,
    ParseError,
    Polynomial,
    content_and_primitive,
    format_polynomial,
    parse_polynomial,
)
from .report import analysis_report, load_schema, sweep_report
from .valuation import format_slope, p_adic_valuation, validate_prime

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset(
    (
        "FactorizationWitness",
        "VerificationReport",
        "WitnessIntegrityError",
        "check_dumas_consistency",
        "kronecker_factor",
        "verify_certificate",
    )
)
_SWEEP_NAMES = frozenset(("SweepSummary", "sweep", "sweep_family"))


def __getattr__(name: str):
    # Not cached in this namespace: every access reads the defining module's
    # current attribute, so a function rebound there (by a tracer or a test)
    # is seen.
    if name in _ORACLE_NAMES:
        from . import oracle as module
    elif name in _SWEEP_NAMES:
        from . import sweeps as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)

__all__ = [
    "AlphaSplit",
    "Analysis",
    "AnalysisInput",
    "Certificate",
    "CriteriaParameters",
    "DegreeZeroFactor",
    "FactorDegreeMultipleOf",
    "FactorizationWitness",
    "InternalError",
    "InvalidInputError",
    "Irreducible",
    "NewtonPolygon",
    "OracleBudgetError",
    "ParseError",
    "Polynomial",
    "SlopeTable",
    "SweepSummary",
    "VerificationReport",
    "WitnessIntegrityError",
    "analysis_report",
    "analyze",
    "check_dumas_consistency",
    "check_theorem1",
    "check_theorem2",
    "compute_parameters",
    "content_and_primitive",
    "dumas_degree_sets",
    "find_dominant_index",
    "format_polynomial",
    "format_slope",
    "kronecker_factor",
    "load_schema",
    "lower_convex_hull",
    "newton_index",
    "newton_polygon",
    "p_adic_valuation",
    "parse_polynomial",
    "slope_table",
    "sweep",
    "sweep_family",
    "sweep_report",
    "validate_prime",
    "valuation_points",
    "verify_certificate",
]
