"""Coefficient bounds for the subordination class, evaluated exactly.

Every bound is a nonnegative real built from |gamma|, |tau| and
Pochhammer quotients.  Which branch of a two-branch bound is the
smaller, and the sign of the third-coefficient bracket, are decided
exactly: each is the sign of a + b*sqrt(A) + c*sqrt(B) with every term
in Q(sqrt 5), settled by squaring in the field.

Each branch formula is written once and evaluated once, over one
carrier chosen by one rule (`_Terms`): |gamma| is exact when it is
rational, |gamma P - 3Q| when gamma P - 3Q is real.  A formula whose
moduli are all exact runs in Q(sqrt 5) and reports its value, or its
square, exactly; any other runs on dyadic intervals at the requested
precision and reports only its float.  The general-coefficient bound
and the first third-coefficient branch read |gamma| alone, so they are
always exact: the value when |gamma| is, else its square.

The two-branch bounds report both branch values and which one is the
minimum.  The bracket of the second third-coefficient branch can have a
negative numerator for small |gamma|; that is reported through a flag,
never clamped away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .exact import (
    ExactComplex,
    Interval,
    QSqrt5,
    _enclosure_float,
    fraction_sqrt,
    render_qsqrt5,
)
from .golden import _TAU_SQ, ABS_TAU
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

_ZERO = QSqrt5(0)
_ONE = QSqrt5(1)


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


def _coerce_gamma(gamma) -> ExactComplex:
    g = ExactComplex(gamma)
    if not g:
        raise ValueError("the weight gamma must be nonzero")
    return g


class _Terms:
    """|gamma|**2, and with `op` also P, Q and |gamma P - 3Q|**2, of one bound call.

    P = 3 (mu+1)_2 / (rho+1)_2 and Q = 4 ((mu+1)_1 / (rho+1)_1)**2, both
    Pochhammer quotients from `rising_ratio`.
    The exactness rule lives here alone: |gamma| is exact when it is
    rational, and |gamma P - 3Q| when gamma P - 3Q is real.
    """

    def __init__(self, g: ExactComplex, op: OperatorParams | None = None):
        self.g2 = g.abs_squared()
        root = fraction_sqrt(self.g2.to_fraction()) if self.g2.is_rational else None
        self.abs_g = None if root is None else QSqrt5(root)
        if op is not None:
            shifted = op.mu + 1, op.rho + 1
            self.p = QSqrt5(3 * rising_ratio(*shifted, 2))
            self.q = QSqrt5(4 * rising_ratio(*shifted, 1) ** 2)
            disc = g * self.p - 3 * self.q
            self.disc_sq = disc.abs_squared()
            self.abs_disc = abs(disc.real) if disc.is_real else None

    def times_abs_g(self, scale: QSqrt5) -> tuple[QSqrt5, bool]:
        """(scale |gamma|, False) when |gamma| is exact, else (its square, True)."""
        if self.abs_g is not None:
            return self.abs_g * scale, False
        return self.g2 * scale * scale, True

    def carrier(self, precision: int, gamma: bool = False, disc: bool = False):
        """(lift, |gamma|, |gamma P - 3Q|) for a formula that reads the named moduli.

        All in Q(sqrt 5) when every modulus read is exact, else intervals
        at `precision`; `lift` brings an exact constant into the carrier.
        Interval arithmetic is not distributive, so a formula lifts each
        exact product whole and keeps its grouping: either change would
        move the enclosure and the reported float.
        """
        if (not gamma or self.abs_g is not None) and (not disc or self.abs_disc is not None):
            return QSqrt5, self.abs_g, self.abs_disc
        return (
            partial(Interval.from_qsqrt5, bits=precision),
            Interval.from_qsqrt5(self.g2, precision).sqrt(precision) if gamma else None,
            Interval.from_qsqrt5(self.disc_sq, precision).sqrt(precision) if disc else None,
        )


def _branch_report(label: str, value, precision: int, root: bool = False) -> BranchReport:
    """Report an exact value, or with `root` an exact square, or an enclosure of either."""
    if isinstance(value, Interval):
        iv, exact = value, None
    else:
        iv, exact = Interval.from_qsqrt5(value, precision), render_qsqrt5(value)
        if root:
            exact = f"sqrt({exact})"
    flt, err = _enclosure_float(iv.sqrt(precision) if root else iv)
    return BranchReport(label=label, value=flt, error=err, exact=exact)


def _minimum_report(
    kind: str,
    gamma: ExactComplex,
    op: OperatorParams,
    branches: tuple[BranchReport, BranchReport],
    ordering: int,
    bracket_flag: bool | None = None,
) -> BoundReport:
    """The report of a two-branch bound; `ordering` is the sign of first - second."""
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
    scale = rising_ratio(op.rho + 1, op.mu + 1, n - 1) / n * ABS_TAU
    value, root = _Terms(g).times_abs_g(scale)
    b = _branch_report("", value, precision, root)
    return BoundReport("general-coefficient", g, op, b.value, b.error, b.exact, n=n)


def bound_a2(gamma, op: OperatorParams, precision: int = DEFAULT_PRECISION) -> BoundReport:
    """Second-coefficient bound: the smaller of two branch values.

    First branch |gamma| |tau| / sqrt(|gamma P - 3Q| |tau| + Q), second
    branch |tau| sqrt(3 |gamma| / P), with P and Q the rational
    aggregates of the operator orders.  Each branch is computed as its
    square, exactly when the one modulus it reads is exact.  The first
    branch is the smaller exactly when
    P |gamma| - 3 |tau| |gamma P - 3Q| - 3Q is negative.
    """
    g = _coerce_gamma(gamma)
    terms = _Terms(g, op)
    lift, _, abs_disc = terms.carrier(precision, disc=True)
    first = lift(terms.g2 * _TAU_SQ) / (abs_disc * lift(ABS_TAU) + lift(terms.q))
    lift, abs_g, _ = terms.carrier(precision, gamma=True)
    second = lift(_TAU_SQ * 3 / terms.p) * abs_g
    branches = (
        _branch_report("first", first, precision, root=True),
        _branch_report("second", second, precision, root=True),
    )
    ordering = _sign(-3 * terms.q, terms.p, terms.g2, -3 * ABS_TAU, terms.disc_sq)
    return _minimum_report("second-coefficient", g, op, branches, ordering)


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
    terms = _Terms(g, op)
    lift, abs_g, abs_disc = terms.carrier(precision, gamma=True, disc=True)
    t, p, q, one = lift(ABS_TAU), lift(terms.p), lift(terms.q), lift(_ONE)
    first, root = terms.times_abs_g(_TAU_SQ * 3 / terms.p)
    second = abs_g * t / p * (one + (p * abs_g * t - q) / (abs_disc * t + q))
    branches = (
        _branch_report("first", first, precision, root),
        _branch_report("second", second, precision),
    )
    ordering = _sign(3 * terms.q, -terms.p, terms.g2, 3 * ABS_TAU - 1, terms.disc_sq)
    bracket_negative = _sign(-terms.q, terms.p * ABS_TAU, terms.g2) < 0
    return _minimum_report("third-coefficient", g, op, branches, ordering, bracket_negative)


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
