"""The golden-ratio generator and its subordination calculus.

The central object is the rational function

    (1 + t^2 z^2) / (1 - t z - t^2 z^2),   t = (1 - sqrt 5)/2,

whose Taylor coefficients are Fibonacci-weighted powers of t.  The
module computes those coefficients by three independent routes (a
two-term recursion, Fibonacci closed sums, and direct series expansion
of the rational function), evaluates the function exactly on Q(sqrt 5)
points and numerically elsewhere, and inverts the subordination
relation: given a series with constant term 1, it recovers the unique
formal preimage under the generator and reports whether that preimage
passes the first two coefficient tests every self-map of the disc
fixing the origin must pass.

Because the generator is rational, that inversion never expands powers
of the preimage: `solve_schwarz` solves the quadratic relation
P - 1 = t*P*w + t^2*(P + 1)*w^2 order by order in O(N^2) exact
operations.  The partition-sum form of the same solve (generator
coefficients against partial Bell polynomials) grows superpolynomially
with N and serves only as the independent check in the tests.

Only the numeric evaluation `golden_value` uses mpmath, and it imports
mpmath on its first call: importing this module (or the package, or its
command line) loads no mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactComplex, QSqrt5
from .series import TruncatedSeries, _convolve

__all__ = [
    "TAU",
    "ABS_TAU",
    "SQRT5",
    "UNIVALENCE_RADIUS",
    "fibonacci",
    "golden_coefficient",
    "golden_coefficients",
    "golden_coefficient_fibonacci",
    "golden_series",
    "golden_value_exact",
    "golden_value",
    "SchwarzCandidate",
    "solve_schwarz",
]

# the negative root of x**2 = x + 1; its absolute value is the golden ratio conjugate
TAU = QSqrt5(Fraction(1, 2), Fraction(-1, 2))
ABS_TAU = -TAU
_TAU_SQ = TAU * TAU
SQRT5 = QSqrt5(0, 1)
# radius of the disc on which the generator is known to be univalent
UNIVALENCE_RADIUS = QSqrt5(Fraction(3, 2), Fraction(-1, 2))


def fibonacci(n: int) -> int:
    """The n-th Fibonacci number with F_0 = 0, F_1 = 1."""
    if n < 0:
        raise ValueError(f"Fibonacci index must be nonnegative, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def golden_coefficients(order: int) -> list[QSqrt5]:
    """Taylor coefficients p_1 .. p_order of the generator, by the two-term recursion.

    p_1 = t, p_2 = 3 t^2 and p_n = t p_(n-1) + t^2 p_(n-2): one pass of
    O(order) exact operations.
    """
    if order < 1:
        raise ValueError(f"coefficient order must be at least 1, got {order}")
    coeffs = [TAU, 3 * _TAU_SQ][:order]
    while len(coeffs) < order:
        coeffs.append(TAU * coeffs[-1] + _TAU_SQ * coeffs[-2])
    return coeffs


def golden_coefficient(n: int) -> QSqrt5:
    """Taylor coefficient of z^n of the generator, by the two-term recursion."""
    if n < 1:
        raise ValueError(f"coefficient index must be at least 1, got {n}")
    return golden_coefficients(n)[-1]


def golden_coefficient_fibonacci(n: int) -> QSqrt5:
    """The same coefficient assembled from Fibonacci numbers, independently."""
    if n < 1:
        raise ValueError(f"coefficient index must be at least 1, got {n}")
    if n == 1:
        weight = fibonacci(0) + fibonacci(2)
    elif n == 2:
        weight = fibonacci(1) + fibonacci(3)
    else:
        weight = (
            fibonacci(n - 3) + fibonacci(n - 2) + fibonacci(n - 1) + fibonacci(n)
        )
    return weight * TAU**n


def golden_series(order: int) -> TruncatedSeries:
    """The generator expanded to the given order by series division.

    Built from the defining numerator and denominator with
    `TruncatedSeries.reciprocal`, so it shares no code with the
    coefficient recursion.
    """
    if order < 1:
        raise ValueError(f"expansion order must be at least 1, got {order}")
    num = [QSqrt5(1), QSqrt5(0), _TAU_SQ][: order + 1]
    den = [QSqrt5(1), -TAU, -_TAU_SQ][: order + 1]
    num += [QSqrt5(0)] * (order + 1 - len(num))
    den += [QSqrt5(0)] * (order + 1 - len(den))
    numerator = TruncatedSeries(num, QSqrt5)
    denominator = TruncatedSeries(den, QSqrt5)
    return numerator * denominator.reciprocal()


def golden_value_exact(z):
    """Evaluate the generator exactly at a point of Q(sqrt 5) or Q(sqrt 5, i).

    Accepts int, Fraction, QSqrt5 or ExactComplex and returns a value of
    the matching exact type.  Raises ZeroDivisionError at the two poles.
    """
    x = z if isinstance(z, ExactComplex) else QSqrt5(z)
    num = 1 + _TAU_SQ * x * x
    den = 1 - TAU * x - _TAU_SQ * x * x
    if not den:
        raise ZeroDivisionError("the golden generator has a pole at this point")
    return num / den


def golden_value(z, precision: int = 128) -> complex:
    """Evaluate the generator numerically at a complex point.

    Works at `precision` bits internally and refuses points whose
    denominator is smaller than 2**(-precision/2), which signals the
    argument is too close to a pole for the requested precision.  This
    is the one routine of the package that needs mpmath, which it
    imports on its first call.
    """
    import mpmath

    if precision < 53:
        raise ValueError("precision below 53 bits cannot even cover a double")
    if isinstance(z, Fraction):
        z = mpmath.mpf(z.numerator) / mpmath.mpf(z.denominator)
    with mpmath.workprec(precision):
        point = mpmath.mpmathify(z)
        tau = (1 - mpmath.sqrt(5)) / 2
        num = 1 + tau**2 * point**2
        den = 1 - tau * point - tau**2 * point**2
        if abs(den) < mpmath.mpf(2) ** (-(precision // 2)):
            raise ValueError("evaluation point is too close to a pole of the generator")
        value = num / den
        return complex(value)


@dataclass(frozen=True)
class SchwarzCandidate:
    """The formal preimage recovered by `solve_schwarz`, with feasibility flags.

    `coeffs` are c_1 .. c_N of the candidate disc self-map.  The flags
    record the two classical necessary conditions |c_1| <= 1 and
    |c_2| <= 1 - |c_1|**2, decided exactly; the boundary flags mark the
    equality cases.  With fewer than two coefficients the untestable
    condition is reported as passing.
    """

    coeffs: tuple
    c1_within_unit: bool
    c2_within_margin: bool
    c1_on_boundary: bool = False
    c2_on_boundary: bool = False

    @property
    def feasible(self) -> bool:
        return self.c1_within_unit and self.c2_within_margin


def solve_schwarz(subordinate: TruncatedSeries) -> SchwarzCandidate:
    """Invert P(z) = generator(w(z)) for the coefficients of w, order by order.

    `subordinate` must have constant term exactly 1.  Clearing the
    generator's denominator turns P = generator(w) into the quadratic
    relation

        P - 1 = t*P*w + t^2*(P + 1)*w^2,

    whose order-k coefficient holds the unknown c_k only in the term
    t*c_k (the coefficients s_k of w^2 involve c_1 .. c_{k-1} alone).
    With p_j the coefficients of P, q_0 = 2 and q_j = p_j otherwise,

        c_k = p_k/t - sum_{j=1}^{k-1} p_j c_{k-j} - t * sum_{j=0}^{k-2} q_j s_{k-j},

    and 1/t = t - 1 exactly.  The solve is triangular, exact and unique
    and costs O(N^2) `ExactComplex` operations at order N.  The returned
    flags assert only necessary conditions: a feasible candidate is
    consistent with, not proof of, an actual disc self-map.
    """
    if subordinate.coeffs[0] != 1:
        raise ValueError("subordinate series must have constant term exactly 1")
    n = subordinate.order
    tau = ExactComplex(TAU)
    tau_inverse = ExactComplex(TAU - 1)
    p = [ExactComplex(c) for c in subordinate.coeffs]
    q = [ExactComplex(2)] + p[1:]
    zero = ExactComplex(0)
    # c and s are indexed from 0 so that c[j], s[j] are the z^j coefficients
    c = [zero] * (n + 1)
    s = [zero] * (n + 1)
    for k in range(1, n + 1):
        s[k] = _convolve(c, c, 1, k - 1, k, zero)
        linear = _convolve(p, c, 1, k - 1, k, zero)
        quadratic = _convolve(q, s, 0, k - 2, k, zero)
        c[k] = p[k] * tau_inverse - linear - tau * quadratic
    coeffs = c[1:]

    c1_within = c2_within = True
    c1_boundary = c2_boundary = False
    if coeffs:
        margin = QSqrt5(1) - coeffs[0].abs_squared()
        margin_sign = margin.sign()
        c1_within = margin_sign >= 0
        c1_boundary = margin_sign == 0
        if len(coeffs) >= 2:
            # |c_2| <= 1 - |c_1|**2, compared through squares to stay exact
            if margin_sign < 0:
                c2_within = False
            else:
                gap_sign = (margin * margin - coeffs[1].abs_squared()).sign()
                c2_within = gap_sign >= 0
                c2_boundary = gap_sign == 0
    return SchwarzCandidate(
        coeffs=tuple(coeffs),
        c1_within_unit=c1_within,
        c2_within_margin=c2_within,
        c1_on_boundary=c1_boundary,
        c2_on_boundary=c2_boundary,
    )
