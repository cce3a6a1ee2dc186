"""The Tremblay fractional operator and the class test built on it.

The operator acts on normalized series termwise: the coefficient of z^n
picks up the exact rational factor prod_{k=0}^{n-1} (mu+k)/(rho+k).
Everything here stays in Pochhammer-quotient form, so no gamma function
is ever evaluated and all coefficients remain exact.

`subordination_lhs` produces the series whose subordination to the
golden generator defines class membership, and `membership_witness`
runs that test on a candidate map and its compositional inverse
simultaneously, which is the bi-univalent direction of the theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactComplex, _rational_terms
from .golden import SchwarzCandidate, solve_schwarz
from .series import TruncatedSeries

__all__ = [
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
]

CONSISTENT = "consistent-to-order"
VIOLATED = "necessary-condition-violated"


def rising_ratio(x: Fraction, y: Fraction, n: int) -> Fraction:
    """The Pochhammer quotient (x)_n / (y)_n = prod_{k=0}^{n-1} (x+k)/(y+k).

    x and y are int or Fraction; floats are refused.
    """
    if n < 0:
        raise ValueError(f"rising factorial length must be nonnegative, got {n}")
    # (x+k)/(y+k) = (a + k b) e / ((c + k e) b) for x = a/b, y = c/e; one reduction at the end
    (a, b), (c, e) = _rational_terms(x), _rational_terms(y)
    num = den = 1
    for k in range(n):
        num *= a + k * b
        den *= c + k * e
    return Fraction(num * e**n, den * b**n)


@dataclass(frozen=True)
class OperatorParams:
    """Exact rational operator orders mu and rho, both required positive.

    The classical derivation of the operator assumes 0 < mu <= 1,
    0 < rho <= 1, mu >= rho and 0 < mu - rho < 1; the coefficient
    action stays well defined for any positive rationals, so values
    outside that window are accepted and merely flagged through
    `in_definition_window`.
    """

    mu: Fraction
    rho: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mu", Fraction(*_rational_terms(self.mu)))
        object.__setattr__(self, "rho", Fraction(*_rational_terms(self.rho)))
        if self.mu <= 0 or self.rho <= 0:
            raise ValueError(f"operator orders must be positive, got mu={self.mu}, rho={self.rho}")

    @property
    def in_definition_window(self) -> bool:
        return (
            0 < self.mu <= 1
            and 0 < self.rho <= 1
            and self.mu >= self.rho
            and 0 < self.mu - self.rho < 1
        )


@dataclass(frozen=True)
class ClassParams:
    """Nonzero complex weight gamma together with the operator orders."""

    gamma: ExactComplex
    op: OperatorParams

    def __post_init__(self):
        object.__setattr__(self, "gamma", ExactComplex(self.gamma))
        if not self.gamma:
            raise ValueError("class weight gamma must be nonzero")


def operator_multiplier(n: int, op: OperatorParams) -> Fraction:
    """Exact factor the operator applies to the coefficient of z^n."""
    if n < 1:
        raise ValueError(f"multiplier index must be at least 1, got {n}")
    return rising_ratio(op.mu, op.rho, n)


def apply_operator(f: TruncatedSeries, op: OperatorParams) -> TruncatedSeries:
    """Apply the operator termwise to a series with zero constant term."""
    if f.coeffs[0]:
        raise ValueError("operator acts on series with zero constant term")
    out = [f.field(0)]
    multiplier = Fraction(1)
    for n in range(1, f.order + 1):
        # running product: operator_multiplier(n, op) = (mu)_n / (rho)_n
        multiplier *= (op.mu + n - 1) / (op.rho + n - 1)
        out.append(multiplier * f.coeffs[n])
    return TruncatedSeries(out, f.field)


def subordination_lhs(h: TruncatedSeries, params: ClassParams) -> TruncatedSeries:
    """The class-defining series for a normalized map h, one order lower.

    Its constant term is exactly 1 and its coefficient of z^{n-1} is
    (n / gamma) * prod_{k=1}^{n-1} (mu+k)/(rho+k) * h_n, the normalized
    derivative of the operator image of h.  With mu = rho = 1 it
    collapses to 1 + (h' - 1)/gamma.  The product is kept running over
    n and 1/gamma is formed once, so order N costs O(N) operations.
    """
    if not h.is_normalized:
        raise ValueError("class test requires a normalized series")
    mu, rho = params.op.mu, params.op.rho
    inverse_gamma = params.gamma.inverse()
    out = [ExactComplex(1)]
    ratio = Fraction(1)
    for n in range(2, h.order + 1):
        # running product: ratio = (mu+1)_{n-1} / (rho+1)_{n-1}
        ratio *= (mu + n - 1) / (rho + n - 1)
        out.append(ratio * n * ExactComplex(h.coeffs[n]) * inverse_gamma)
    return TruncatedSeries(out, ExactComplex)


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the two-sided subordination test at a truncation order.

    `map_candidate` and `inverse_candidate` are the recovered formal
    disc self-maps for the function and its compositional inverse.  Only
    two necessary conditions are checked on each side, |c_1| <= 1 and
    |c_2| <= 1 - |c_1|**2, decided exactly.  The verdict is VIOLATED as
    soon as one fails and otherwise CONSISTENT, which says no more than
    that these two hold: the higher coefficients up to the inspected
    order are not tested, so a CONSISTENT map can still leave the class
    at that order.
    """

    order: int
    params: ClassParams
    map_candidate: SchwarzCandidate
    inverse_candidate: SchwarzCandidate
    verdict: str

    @property
    def consistent(self) -> bool:
        return self.verdict.startswith(CONSISTENT)


def membership_witness(
    f: TruncatedSeries, params: ClassParams, order: int | None = None
) -> MembershipReport:
    """Test a normalized map and its inverse against the class conditions.

    Truncates f to `order` (default: its own order, which must be at
    least 3 so that the inverse side sees a nontrivial coefficient),
    takes the compositional inverse by `TruncatedSeries.revert`, forms
    both class series, recovers both formal preimages under the golden
    generator, and checks |c_1| <= 1 and |c_2| <= 1 - |c_1|**2 on each.
    A consistent verdict is necessary for membership through `order`,
    not sufficient: no condition on c_3 onwards is checked.
    """
    if order is None:
        order = f.order
    if order < 3:
        raise ValueError(f"membership test needs truncation order >= 3, got {order}")
    if order > f.order:
        raise ValueError(f"requested order {order} exceeds series order {f.order}")
    if not f.is_normalized:
        raise ValueError("membership test requires a normalized series")
    trimmed = f.truncated(order)
    inverse = trimmed.revert()
    forward_candidate = solve_schwarz(subordination_lhs(trimmed, params))
    inverse_candidate = solve_schwarz(subordination_lhs(inverse, params))
    verdict = (
        f"{CONSISTENT}-{order}"
        if forward_candidate.feasible and inverse_candidate.feasible
        else VIOLATED
    )
    return MembershipReport(
        order=order,
        params=params,
        map_candidate=forward_candidate,
        inverse_candidate=inverse_candidate,
        verdict=verdict,
    )
