"""Exact Newton-polygon analysis of integer polynomials.

Given a polynomial with integer coefficients and a prime p, this
package computes the p-adic valuation points and their lower convex
hull, the exact rational slope table and Newton index, and emits
certificates constraining the degrees any factorization can have.  A
brute-force Kronecker factorization oracle verifies every certificate
at desk scale.
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
    ValuationPoint,
    lower_convex_hull,
    newton_index,
    newton_polygon,
    slope_table,
    valuation_points,
)
from .oracle import (
    FactorizationWitness,
    OracleBudgetError,
    SweepSummary,
    VerificationReport,
    WitnessIntegrityError,
    check_dumas_consistency,
    kronecker_factor,
    sweep,
    sweep_family,
    verify_certificate,
)
from .polynomial import (
    AnalysisInput,
    InvalidInputError,
    ParseError,
    Polynomial,
    content_and_primitive,
    format_polynomial,
    parse_polynomial,
)
from .report import analysis_report, load_schema, sweep_report
from .valuation import Slope, p_adic_valuation, validate_prime

__version__ = "0.1.0"

__all__ = [
    "AlphaSplit",
    "Analysis",
    "AnalysisInput",
    "Certificate",
    "CriteriaParameters",
    "DegreeZeroFactor",
    "FactorDegreeMultipleOf",
    "FactorizationWitness",
    "InvalidInputError",
    "Irreducible",
    "NewtonPolygon",
    "OracleBudgetError",
    "ParseError",
    "Polynomial",
    "Slope",
    "SlopeTable",
    "SweepSummary",
    "ValuationPoint",
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
