"""Exact coefficient machinery for golden-ratio subordination classes.

The package computes, entirely in exact arithmetic, the objects behind
coefficient estimates for bi-univalent maps subordinate to the
golden-ratio generator: truncated series and their compositional
inverses (two independent routes), partition-sum polynomials, the
generator's Fibonacci-weighted Taylor coefficients, the Tremblay
fractional operator, the two-sided membership test, and the resulting
coefficient bounds with certified float renderings.
"""

from .bounds import (
    DEFAULT_PRECISION,
    BoundReport,
    BranchReport,
    bound_a2,
    bound_a3,
    bound_theorem1,
    corollary_check,
)
from .exact import (
    ExactComplex,
    Interval,
    IntervalStraddleError,
    QSqrt5,
    fraction_sqrt,
    parse_qsqrt5,
    parse_rational,
    parse_scalar,
    render_qsqrt5,
    render_rational,
    render_scalar,
    to_float,
)
from .faber import (
    faber_inverse_coefficients,
    faber_polynomial,
    partial_bell,
)
from .golden import (
    ABS_TAU,
    SQRT5,
    TAU,
    UNIVALENCE_RADIUS,
    SchwarzCandidate,
    fibonacci,
    golden_coefficient,
    golden_coefficient_fibonacci,
    golden_coefficients,
    golden_series,
    golden_value,
    golden_value_exact,
    solve_schwarz,
)
from .series import NormalizedSeries, TruncatedSeries, join_field
from .tremblay import (
    CONSISTENT,
    VIOLATED,
    ClassParams,
    MembershipReport,
    OperatorParams,
    apply_operator,
    membership_witness,
    operator_multiplier,
    rising_ratio,
    subordination_lhs,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "QSqrt5",
    "ExactComplex",
    "Interval",
    "IntervalStraddleError",
    "to_float",
    "fraction_sqrt",
    "parse_rational",
    "parse_qsqrt5",
    "parse_scalar",
    "render_rational",
    "render_qsqrt5",
    "render_scalar",
    "TruncatedSeries",
    "NormalizedSeries",
    "join_field",
    "partial_bell",
    "faber_polynomial",
    "faber_inverse_coefficients",
    "TAU",
    "ABS_TAU",
    "SQRT5",
    "UNIVALENCE_RADIUS",
    "fibonacci",
    "golden_coefficient",
    "golden_coefficients",
    "golden_coefficient_fibonacci",
    "golden_series",
    "golden_value",
    "golden_value_exact",
    "SchwarzCandidate",
    "solve_schwarz",
    "OperatorParams",
    "ClassParams",
    "rising_ratio",
    "operator_multiplier",
    "apply_operator",
    "subordination_lhs",
    "MembershipReport",
    "membership_witness",
    "CONSISTENT",
    "VIOLATED",
    "BoundReport",
    "BranchReport",
    "bound_theorem1",
    "bound_a2",
    "bound_a3",
    "corollary_check",
    "DEFAULT_PRECISION",
]
