"""Exact outputs pinned byte for byte.

Changing how the exact scalars are stored or computed must not change
any exact output.  These digests are the sha256 of the `repr` of fixed
results, recorded before the integer-coordinate `QSqrt5`; any
difference in a coefficient, a flag or a canonical form changes them.
"""

import hashlib
from fractions import Fraction

import pytest

from faberfib import (
    ClassParams,
    ExactComplex,
    NormalizedSeries,
    OperatorParams,
    QSqrt5,
    TruncatedSeries,
    membership_witness,
    solve_schwarz,
)

UPPER = [
    Fraction(n, d)
    for n, d in [(1, 2), (-1, 3), (2, 5), (0, 1), (-3, 7), (1, 4), (5, 9), (-1, 6), (2, 11), (-4, 13), (1, 8)]
]

# (map of order 12, class parameters); the first passes both necessary
# conditions through order 12, the second violates them
WITNESS_INPUTS = {
    # |gamma|**2 = 85/441 is not a rational square: the modulus is irrational
    "irrational-modulus": (
        NormalizedSeries.from_upper([c / 20 for c in UPPER]),
        ClassParams(
            ExactComplex(Fraction(1, 3), Fraction(-2, 7)),
            OperatorParams(Fraction(3, 4), Fraction(1, 2)),
        ),
    ),
    # gamma with a sqrt5 part
    "sqrt5-gamma": (
        NormalizedSeries.from_upper(UPPER),
        ClassParams(
            ExactComplex(QSqrt5(Fraction(1, 2), Fraction(1, 3)), Fraction(2, 3)),
            OperatorParams(Fraction(5, 4), Fraction(1, 4)),
        ),
    ),
}

WITNESS_DIGESTS = {
    ("irrational-modulus", 6): "35b1050db239734bfbcc1c6b6c1a216a28481bd2f4371a62a0d7f78c42cefa5c",
    ("irrational-modulus", 12): "770a82b4d43d26ba04554a38ccd3b96c1bf8506f29bba91506be7a305549c821",
    ("sqrt5-gamma", 6): "d4bbc3778caddf6e23a8f94e074fcdadbc0d3680286944a8241eead109e8b076",
    ("sqrt5-gamma", 12): "1a5e4f3c6d1db8b66280ba1d1c500c9948d92973bb2f18b6f1825a898608e880",
}

SCHWARZ_SERIES = TruncatedSeries(
    [
        ExactComplex(1),
        ExactComplex(QSqrt5(Fraction(1, 3), Fraction(1, 5)), Fraction(1, 7)),
        ExactComplex(Fraction(-2, 9), QSqrt5(0, Fraction(1, 2))),
        ExactComplex(QSqrt5(Fraction(3, 4), Fraction(-1, 6))),
        ExactComplex(0, Fraction(5, 8)),
        ExactComplex(QSqrt5(Fraction(-1, 10), Fraction(2, 3)), Fraction(-3, 11)),
        ExactComplex(Fraction(1, 12)),
        ExactComplex(QSqrt5(0, Fraction(-1, 4)), QSqrt5(Fraction(1, 2), Fraction(1, 2))),
        ExactComplex(Fraction(2, 5), Fraction(-1, 3)),
    ],
    ExactComplex,
)

SCHWARZ_DIGEST = "a2facfb2abc2b1580127d51dcc5fd8fc96ef1244ea6510366813231223c300e6"


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("name, order", sorted(WITNESS_DIGESTS))
def test_witness_repr_pinned(name, order):
    f, params = WITNESS_INPUTS[name]
    report = membership_witness(f, params, order=order)
    assert digest(report) == WITNESS_DIGESTS[name, order]


def test_schwarz_solve_repr_pinned():
    candidate = solve_schwarz(SCHWARZ_SERIES)
    assert any(not c.real.is_rational for c in candidate.coeffs)
    assert digest(candidate) == SCHWARZ_DIGEST
