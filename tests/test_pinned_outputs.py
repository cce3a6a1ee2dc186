"""Exact outputs pinned byte for byte.

Changing how the exact scalars are stored or computed must not change
any exact output.  These digests are the sha256 of the `repr` of fixed
results (or of a command's stdout); any difference in a coefficient, a
flag or a canonical form changes them.  The witness and Schwarz digests
were recorded before the integer-coordinate `QSqrt5`; the Faber,
composition and command digests before Miller's recurrence replaced the
partition sums in `faber_polynomial` and the integer-coordinate kernel
replaced the ring-object loop in `TruncatedSeries.compose`.
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
    faber_inverse_coefficients,
    faber_polynomial,
    golden_series,
    membership_witness,
    solve_schwarz,
)
from faberfib.cli import main

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


# a dense order-28 map with small, unrelated denominators
INVERSE_UPPER = [Fraction((-1) ** k * (k % 7 + 1), k % 5 + 2) for k in range(27)]

INVERSE_DIGESTS = {
    20: "72e2a57f0c8e861a58d40feff99592fc7503ebb35d9a6724f42c82c71714b762",
    28: "02c995856f0131f9122f9110694e3b2fa578e6eeb4f787d1325bc3fdf21dd2ce",
}


@pytest.mark.parametrize("order", sorted(INVERSE_DIGESTS))
def test_faber_inverse_repr_pinned(order):
    f = NormalizedSeries.from_upper(INVERSE_UPPER[: order - 1])
    assert digest(faber_inverse_coefficients(f)) == INVERSE_DIGESTS[order]


FABER_INPUTS = {
    Fraction: [Fraction(1)] + UPPER[:10],
    QSqrt5: [QSqrt5(1)] + [QSqrt5(c, UPPER[-1 - k]) for k, c in enumerate(UPPER[:10])],
    ExactComplex: [ExactComplex(1)]
    + [ExactComplex(QSqrt5(c, UPPER[k + 1]), UPPER[-1 - k]) for k, c in enumerate(UPPER[:10])],
}

FABER_DIGESTS = {
    Fraction: "ecb787f5c41a295bf207a0f2cd0e0053a91721f5e601d222d4ca2e09cf5791be",
    QSqrt5: "3046ff4871340741878b998631940fdf9cde3fc9b6b084ec51b715a0a30ff3f9",
    ExactComplex: "7d310e52270ae2b33615b7e75c351134a5eff240d77aaa3187331955fa387c78",
}


@pytest.mark.parametrize("field", [Fraction, QSqrt5, ExactComplex], ids=lambda f: f.__name__)
def test_faber_polynomial_repr_pinned(field):
    a = FABER_INPUTS[field]
    values = [faber_polynomial(n, p, a) for n in (1, 4, 10) for p in (-11, -4, 0, 1, 2, 9)]
    assert digest(values) == FABER_DIGESTS[field]


COMPOSE_DIGEST = "8fe15ca89035fa23883b240ebde67c4dfe29ed2e0ee214abf914a3d428792b1d"


def test_golden_compose_repr_pinned():
    # the witness check's pairing: the Q(sqrt 5) generator series composed
    # with an ExactComplex disc map
    w = TruncatedSeries(
        [ExactComplex(0), *SCHWARZ_SERIES.coeffs[1:], *SCHWARZ_SERIES.coeffs[1:4]], ExactComplex
    )
    assert digest(golden_series(11).compose(w)) == COMPOSE_DIGEST


COMMAND_DIGESTS = {
    ("inverse", "--coeffs", ",".join(["0", "1"] + [str(c) for c in INVERSE_UPPER[:18]])):
        "54dd53309c28b3eedaa5bc73bea8706748947ec77b440d4b42a193589324db22",
    ("inverse", "--coeffs", "0,1,1/2+1/3*sqrt5,-2/7*i,0,3/5-sqrt5+1/4*i,1/9", "--order", "5"):
        "ef46dc303249f93ee38c944bc7f1614a96d19592acf9cb5051411412a42be293",
    ("faber-k", "--n", "9", "--p", "-10", "--coeffs", ",".join(["1"] + [str(c) for c in UPPER[:9]])):
        "42a83873a7fd2aaa32e2e4da055c7c46d291fad060969fdafa59b097035e568f",
    ("faber-k", "--n", "4", "--p", "3", "--coeffs", "1,1/2*sqrt5,-1/3+2*i,0,5/7"):
        "8e938d072c7cb0ade4c530d915fcd31c32950d616961789428b34bce917a0d1f",
    ("bell", "--n", "9", "--m", "4", "--coeffs", ",".join(str(c) for c in UPPER[:9])):
        "178191ab0e59357ace2ab68f5ac248b3bf9db76a014a4970bce4857dd1c103d7",
    ("bell", "--n", "5", "--m", "2", "--coeffs", "1/2,sqrt5,2/3*i,-1,1/4+1/5*sqrt5"):
        "bae2d7810d08ac1225f8135636824a2ecf41b8b393519f67b86778baeb7bae7d",
}


@pytest.mark.parametrize("argv", sorted(COMMAND_DIGESTS), ids=lambda a: a[0])
def test_command_stdout_pinned(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_DIGESTS[argv]
