"""Coefficient bounds for the subordination class, evaluated exactly.

Every bound is a nonnegative real built from |gamma|, |tau| and
Pochhammer quotients.  Which branch of a two-branch bound is the
smaller, and the sign of the third-coefficient bracket, are decided
exactly: each is the sign of a + b*sqrt(A) + c*sqrt(B) with every term
in Q(sqrt 5), settled by squaring in the field.  A value that, or whose
square, lies in Q(sqrt 5) is carried exactly; any other (complex gamma
of non-rational modulus, or a complex branch discriminant) is enclosed
in dyadic intervals at the requested precision for its float.

The two-branch bounds report both branch values and which one is the
minimum.  The bracket of the second third-coefficient branch can have a
negative numerator for small |gamma|; that is reported through a flag,
never clamped away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    ExactComplex,
    Interval,
    QSqrt5,
    _enclosure_float,
    fraction_sqrt,
    render_qsqrt5,
)
from .golden import ABS_TAU, TAU
from .tremblay import OperatorParams, rising_ratio

__all__ = [
    "BranchReport",
    "BoundReport",
    "bound_theorem1",
    "bound_a2",
    "bound_a3",
    "corollary_check",
    "DEFAULT_PRECISION",
]

DEFAULT_PRECISION = 128

_TAU_SQ = TAU * TAU
_ZERO = QSqrt5(0)


def _sign(a: QSqrt5, b: QSqrt5, big_a: QSqrt5, c: QSqrt5 = _ZERO, big_b: QSqrt5 = _ZERO) -> int:
    """Exact sign of a + b*sqrt(big_a) + c*sqrt(big_b), for big_a, big_b >= 0.

    When two parts have opposite signs the larger magnitude decides, and
    comparing their squares leaves an expression with one root fewer.
    """
    if c and big_b:
        head, tail = _sign(a, b, big_a), c.sign()
        if head * tail < 0:
            # (a + b*sqrt(big_a))**2 - c**2*big_b
            return head * _sign(a * a + b * b * big_a - c * c * big_b, 2 * a * b, big_a)
        return head or tail
    head, tail = a.sign(), (b.sign() if big_a else 0)
    if head * tail < 0:
        return head * (a * a - b * b * big_a).sign()
    return head or tail


class _BoundValue:
    """A nonnegative bound with the tightest exact carrier available.

    `direct` is the value itself in Q(sqrt 5) when representable;
    otherwise `square` is the value's square in Q(sqrt 5) when that is;
    otherwise `fn` computes a dyadic enclosure at a requested bit count.
    """

    def __init__(self, direct: QSqrt5 | None = None, square: QSqrt5 | None = None, fn=None):
        self.direct = direct
        self.square = square
        self.fn = fn

    def interval(self, bits: int) -> Interval:
        if self.direct is not None:
            return Interval.from_qsqrt5(self.direct, bits)
        if self.square is not None:
            return Interval.from_qsqrt5(self.square, bits).sqrt(bits)
        return self.fn(bits)

    def render_exact(self) -> str | None:
        if self.direct is not None:
            return render_qsqrt5(self.direct)
        if self.square is not None:
            return f"sqrt({render_qsqrt5(self.square)})"
        return None


@dataclass(frozen=True)
class BranchReport:
    """One branch of a two-branch bound, rendered for reporting."""

    label: str
    value: float
    error: float
    exact: str | None


@dataclass(frozen=True)
class BoundReport:
    """A fully evaluated coefficient bound.

    `value`/`error` give a float with a guaranteed enclosure radius;
    `exact` is the exact carrier as text when one exists ("p/q + r/s*sqrt5"
    or "sqrt(...)").  For two-branch bounds `branch` names the minimum
    ("first", "second" or "tie") and `branches` carries both candidates.
    `second_bracket_negative` reports whether the second
    third-coefficient branch's bracket numerator is negative (False when
    it is zero; None for the bounds that have no bracket).
    """

    kind: str
    gamma: ExactComplex
    op: OperatorParams
    value: float
    error: float
    exact: str | None
    n: int | None = None
    branch: str | None = None
    branches: tuple[BranchReport, ...] = ()
    second_bracket_negative: bool | None = None


def _exact_abs(z: ExactComplex) -> Fraction | None:
    """|z| as an exact rational when |z|**2 is a rational perfect square."""
    sq = z.abs_squared()
    if not sq.is_rational:
        return None
    return fraction_sqrt(sq.to_fraction())


def _coerce_gamma(gamma) -> ExactComplex:
    g = ExactComplex(gamma)
    if not g:
        raise ValueError("the weight gamma must be nonzero")
    return g


def _numerator_params(op: OperatorParams):
    """The two rational aggregates every second-coefficient bound uses."""
    mu, rho = op.mu, op.rho
    big_p = Fraction(3) * (mu + 1) * (mu + 2) / ((rho + 1) * (rho + 2))
    big_q = Fraction(4) * (mu + 1) ** 2 / (rho + 1) ** 2
    return big_p, big_q


def _branch_report(label: str, value: _BoundValue, precision: int) -> BranchReport:
    flt, err = _enclosure_float(value.interval(precision))
    return BranchReport(label=label, value=flt, error=err, exact=value.render_exact())


def _minimum_report(
    kind: str,
    gamma: ExactComplex,
    op: OperatorParams,
    first: _BoundValue,
    second: _BoundValue,
    ordering: int,
    precision: int,
    bracket_flag: bool | None = None,
) -> BoundReport:
    """The report of a two-branch bound; `ordering` is the sign of first - second."""
    branches = (
        _branch_report("first", first, precision),
        _branch_report("second", second, precision),
    )
    chosen = branches[1] if ordering > 0 else branches[0]
    return BoundReport(
        kind=kind,
        gamma=gamma,
        op=op,
        value=chosen.value,
        error=chosen.error,
        exact=chosen.exact,
        branch=("first", "tie", "second")[ordering + 1],
        branches=branches,
        second_bracket_negative=bracket_flag,
    )


def bound_theorem1(
    n: int, gamma, op: OperatorParams, precision: int = DEFAULT_PRECISION
) -> BoundReport:
    """General-coefficient bound |gamma| |tau| (rho+1)_{n-1} / (n (mu+1)_{n-1}).

    Valid for coefficient indices n >= 3 (the derivation assumes all
    lower coefficients vanish).  Always exact: the square of the bound
    lies in Q(sqrt 5), and the value itself does whenever |gamma| is
    rational.
    """
    if n < 3:
        raise ValueError(f"the vanishing-coefficient bound starts at n = 3, got {n}")
    g = _coerce_gamma(gamma)
    ratio = rising_ratio(op.rho + 1, op.mu + 1, n - 1) / n
    abs_gamma = _exact_abs(g)
    if abs_gamma is not None:
        value = _BoundValue(direct=abs_gamma * ratio * ABS_TAU)
    else:
        value = _BoundValue(square=g.abs_squared() * ratio * ratio * _TAU_SQ)
    flt, err = _enclosure_float(value.interval(precision))
    return BoundReport(
        kind="general-coefficient",
        gamma=g,
        op=op,
        n=n,
        value=flt,
        error=err,
        exact=value.render_exact(),
    )


def bound_a2(gamma, op: OperatorParams, precision: int = DEFAULT_PRECISION) -> BoundReport:
    """Second-coefficient bound: the smaller of two branch values.

    First branch |gamma| |tau| / sqrt(|gamma P - 3Q| |tau| + Q), second
    branch |tau| sqrt(3 |gamma| / P), with P and Q the rational
    aggregates of the operator orders.  The first branch is carried
    exactly whenever gamma P - 3Q is real, the second whenever |gamma|
    is rational; any other branch value is enclosed in intervals.  The
    first branch is the smaller exactly when
    P |gamma| - 3 |tau| |gamma P - 3Q| - 3Q is negative.
    """
    g = _coerce_gamma(gamma)
    big_p, big_q = _numerator_params(op)
    g2 = g.abs_squared()
    abs_gamma = _exact_abs(g)
    disc = g * big_p - ExactComplex(3 * big_q)
    disc_sq = disc.abs_squared()

    if disc.is_real:
        denom = abs(disc.real) * ABS_TAU + big_q
        first = _BoundValue(square=g2 * _TAU_SQ / denom)
    else:

        def first_fn(bits: int, _dsq=disc_sq, _g2=g2) -> Interval:
            abs_disc = Interval.from_qsqrt5(_dsq, bits).sqrt(bits)
            denom_iv = abs_disc * Interval.from_qsqrt5(ABS_TAU, bits) + Interval.point(big_q)
            return (Interval.from_qsqrt5(_g2 * _TAU_SQ, bits) / denom_iv).sqrt(bits)

        first = _BoundValue(fn=first_fn)

    second_scale = _TAU_SQ * 3 / big_p
    if abs_gamma is not None:
        second = _BoundValue(square=second_scale * abs_gamma)
    else:

        def second_fn(bits: int, _g2=g2) -> Interval:
            abs_g = Interval.from_qsqrt5(_g2, bits).sqrt(bits)
            return (Interval.from_qsqrt5(second_scale, bits) * abs_g).sqrt(bits)

        second = _BoundValue(fn=second_fn)

    ordering = _sign(QSqrt5(-3 * big_q), QSqrt5(big_p), g2, -3 * ABS_TAU, disc_sq)
    return _minimum_report("second-coefficient", g, op, first, second, ordering, precision)


def bound_a3(gamma, op: OperatorParams, precision: int = DEFAULT_PRECISION) -> BoundReport:
    """Third-coefficient bound: the smaller of two branch values.

    First branch 3 |gamma| tau^2 / P; second branch
    (|gamma| |tau| / P) * (1 + (P |gamma| |tau| - Q) / (|gamma P - 3Q| |tau| + Q)).
    The bracket numerator of the second branch may be negative (small
    |gamma|); its sign is reported, and the bracket itself is provably
    at least Q - Q = 0 away from pushing the branch negative, so no
    clamping is applied.  The first branch is the smaller exactly when
    (3 |tau| - 1) |gamma P - 3Q| + 3Q - P |gamma| is negative.
    """
    g = _coerce_gamma(gamma)
    big_p, big_q = _numerator_params(op)
    g2 = g.abs_squared()
    abs_gamma = _exact_abs(g)
    disc = g * big_p - ExactComplex(3 * big_q)
    disc_sq = disc.abs_squared()

    first_scale = _TAU_SQ * 3 / big_p
    if abs_gamma is not None:
        first = _BoundValue(direct=abs_gamma * first_scale)
    else:
        first = _BoundValue(square=g2 * first_scale * first_scale)

    if abs_gamma is not None and disc.is_real:
        numer = big_p * abs_gamma * ABS_TAU - big_q
        denom = abs(disc.real) * ABS_TAU + big_q
        value = (abs_gamma * ABS_TAU / big_p) * (1 + numer / denom)
        second = _BoundValue(direct=value)
    else:

        def second_fn(bits: int, _dsq=disc_sq, _g2=g2) -> Interval:
            abs_g = Interval.from_qsqrt5(_g2, bits).sqrt(bits)
            abs_t = Interval.from_qsqrt5(ABS_TAU, bits)
            abs_disc = Interval.from_qsqrt5(_dsq, bits).sqrt(bits)
            numer_iv = Interval.point(big_p) * abs_g * abs_t - Interval.point(big_q)
            denom_iv = abs_disc * abs_t + Interval.point(big_q)
            one = Interval.point(Fraction(1))
            scale = abs_g * abs_t / Interval.point(big_p)
            return scale * (one + numer_iv / denom_iv)

        second = _BoundValue(fn=second_fn)

    ordering = _sign(QSqrt5(3 * big_q), QSqrt5(-big_p), g2, 3 * ABS_TAU - 1, disc_sq)
    bracket_negative = _sign(QSqrt5(-big_q), big_p * ABS_TAU, g2) < 0
    return _minimum_report(
        "third-coefficient", g, op, first, second, ordering, precision, bracket_negative
    )


def corollary_check(which: int, grid=None, precision: int = DEFAULT_PRECISION):
    """Replay a specialization of the general bounds with independent formulas.

    `which` picks the specialization: 1 is the general-coefficient bound
    at mu = rho = 1, 2 additionally pins gamma = 1, 3 is the pair of
    low-coefficient bounds at mu = rho = 1, and 4 further pins gamma = 1.
    `grid` is an iterable of (gamma, n) pairs; specializations that fix
    gamma or ignore n skip the corresponding entry.  Each row compares
    the library bound against a from-scratch float formula; agreement is
    exact when both sides are exact, otherwise within 1e-12 relative.

    Returns (rows, all_pass).
    """
    if which not in (1, 2, 3, 4):
        raise ValueError(f"specialization index must be 1..4, got {which}")
    op = OperatorParams(Fraction(1), Fraction(1))
    t = (math.sqrt(5) - 1) / 2
    if grid is None:
        default_gammas = (
            ExactComplex(1),
            ExactComplex(Fraction(2, 3)),
            ExactComplex(2, 1),
            ExactComplex(Fraction(-1, 2), Fraction(3, 4)),
        )
        if which in (1, 3):
            grid = [(g, n) for g in default_gammas for n in (3, 4, 5)]
        else:
            grid = [(ExactComplex(1), n) for n in (3, 4, 5)]

    rows = []

    def add_row(bound_name, gamma, n, expected, actual, error):
        tol = max(error, 1e-12 * max(1.0, abs(expected)))
        ok = abs(expected - actual) <= tol
        rows.append(
            {
                "corollary": which,
                "bound": bound_name,
                "gamma": gamma,
                "n": n,
                "expected": expected,
                "actual": actual,
                "pass": ok,
            }
        )

    seen_gammas = []
    for gamma, n in grid:
        g = _coerce_gamma(gamma)
        if which in (2, 4):
            g = ExactComplex(1)
        if which in (1, 2):
            report = bound_theorem1(n, g, op, precision)
            expected = abs(complex(g)) * t / n
            add_row("a_n", g, n, expected, report.value, report.error)
        else:
            if any(g == s for s in seen_gammas):
                continue
            seen_gammas.append(g)
            gf = complex(g)
            ag = abs(gf)
            ad = 3 * abs(gf - 4)  # equals |gamma P - 3Q| at mu = rho = 1
            expected_a2 = min(
                ag * t / math.sqrt(ad * t + 4), t * math.sqrt(ag)
            )
            expected_a3 = min(
                ag * t * t, (abs(gf - 4) + ag) * t * t * ag / (ad * t + 4)
            )
            a2 = bound_a2(g, op, precision)
            a3 = bound_a3(g, op, precision)
            add_row("a_2", g, None, expected_a2, a2.value, a2.error)
            add_row("a_3", g, None, expected_a3, a3.value, a3.error)

    return rows, all(row["pass"] for row in rows)
