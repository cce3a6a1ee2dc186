"""Exact outputs pinned byte for byte.

Changing how the exact scalars are stored or computed must not change
any exact output.  These digests are the sha256 of the `repr` of fixed
results (or of a command's stdout); any difference in a coefficient, a
flag or a canonical form changes them.  The witness and Schwarz digests
were recorded before the integer-coordinate `QSqrt5`; the Faber,
composition and command digests before Miller's recurrence replaced the
partition sums in `faber_polynomial` and the integer-coordinate kernel
replaced the ring-object loop in `TruncatedSeries.compose`; the bound
digests before each bound formula was written once over one carrier; the
order-28 witness and Schwarz digests and the `revert`, product and
reciprocal digests before one convolution loop replaced the hand-written
sums in `TruncatedSeries.__mul__`, `reciprocal`, `revert` and
`solve_schwarz`; the large-height `revert` digests before `revert` moved
from field arithmetic onto integer coordinates; the 1024-bit bound
digests and the `to_float` digests before `Interval` moved from
Fraction endpoints onto unreduced integer ones.

No case prints a `hash`, so the digests do not depend on
`PYTHONHASHSEED`.  Running

    PYTHONPATH=src python tests/test_pinned_outputs.py

lists each pinned case with its current digest and whether that still
matches the stored one.  It rewrites nothing: a change that means to
alter one of these outputs copies the new digest here and says why.
"""

import hashlib
import io
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from faberfib import (
    ABS_TAU,
    ClassParams,
    ExactComplex,
    NormalizedSeries,
    OperatorParams,
    QSqrt5,
    TruncatedSeries,
    bound_a2,
    bound_a3,
    bound_theorem1,
    faber_inverse_coefficients,
    faber_polynomial,
    golden_series,
    membership_witness,
    solve_schwarz,
    to_float,
)
from faberfib.cli import main

UPPER = [
    Fraction(n, d)
    for n, d in [(1, 2), (-1, 3), (2, 5), (0, 1), (-3, 7), (1, 4), (5, 9), (-1, 6), (2, 11), (-4, 13), (1, 8)]
]

# a dense order-40 coefficient list with small, unrelated denominators
INVERSE_UPPER = [Fraction((-1) ** k * (k % 7 + 1), k % 5 + 2) for k in range(39)]

# (map of order 28, class parameters); the first passes both necessary
# conditions through order 28, the second violates them.  The first 11
# coefficients are UPPER, so orders 6 and 12 see the maps they were
# recorded with.
WITNESS_UPPER = UPPER + INVERSE_UPPER[11:27]

WITNESS_INPUTS = {
    # |gamma|**2 = 85/441 is not a rational square: the modulus is irrational
    "irrational-modulus": (
        NormalizedSeries.from_upper([c / 20 for c in WITNESS_UPPER]),
        ClassParams(
            ExactComplex(Fraction(1, 3), Fraction(-2, 7)),
            OperatorParams(Fraction(3, 4), Fraction(1, 2)),
        ),
    ),
    # gamma with a sqrt5 part
    "sqrt5-gamma": (
        NormalizedSeries.from_upper(WITNESS_UPPER),
        ClassParams(
            ExactComplex(QSqrt5(Fraction(1, 2), Fraction(1, 3)), Fraction(2, 3)),
            OperatorParams(Fraction(5, 4), Fraction(1, 4)),
        ),
    ),
}

WITNESS_DIGESTS = {
    ("irrational-modulus", 6): "35b1050db239734bfbcc1c6b6c1a216a28481bd2f4371a62a0d7f78c42cefa5c",
    ("irrational-modulus", 12): "770a82b4d43d26ba04554a38ccd3b96c1bf8506f29bba91506be7a305549c821",
    ("irrational-modulus", 28): "31ec63273c8f536c7e61ae2438351f95b06f83131e531b924412ee76bb10fe7a",
    ("sqrt5-gamma", 6): "d4bbc3778caddf6e23a8f94e074fcdadbc0d3680286944a8241eead109e8b076",
    ("sqrt5-gamma", 12): "1a5e4f3c6d1db8b66280ba1d1c500c9948d92973bb2f18b6f1825a898608e880",
    ("sqrt5-gamma", 28): "93b91353844c35ec829d136d68bb49bfc88c8dce3fe8ff2b8e91c91cd7f66f13",
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


def witness_report(name, order):
    f, params = WITNESS_INPUTS[name]
    return membership_witness(f, params, order=order)


@pytest.mark.parametrize("name, order", sorted(WITNESS_DIGESTS))
def test_witness_repr_pinned(name, order):
    assert digest(witness_report(name, order)) == WITNESS_DIGESTS[name, order]


def test_schwarz_solve_repr_pinned():
    candidate = solve_schwarz(SCHWARZ_SERIES)
    assert any(not c.real.is_rational for c in candidate.coeffs)
    assert digest(candidate) == SCHWARZ_DIGEST


FIELDS = {field.__name__: field for field in (Fraction, QSqrt5, ExactComplex)}

# a second rational sequence, unrelated to INVERSE_UPPER; the larger
# fields take it as radical and as imaginary parts
OTHER_UPPER = [Fraction((-1) ** (k // 2) * (k % 4 + 1), k % 3 + 3) for k in range(39)]


def field_values(field_name: str, count: int, sparse: bool = False) -> list:
    """`count` coefficients of the named field; a sparse list keeps one in four."""
    values = []
    for k in range(count):
        a, b, c = INVERSE_UPPER[k], OTHER_UPPER[k], OTHER_UPPER[-1 - k]
        if sparse and k % 4 != 1:
            values.append(0)
        elif field_name == "Fraction":
            values.append(a)
        elif field_name == "QSqrt5":
            values.append(QSqrt5(a, b))
        else:
            values.append(ExactComplex(QSqrt5(a, b), c))
    return values


# an order-28 series with constant term 1 and coefficients in Q(sqrt 5, i)
SCHWARZ_SERIES_28 = TruncatedSeries([1] + field_values("ExactComplex", 28), ExactComplex)

SCHWARZ_28_DIGEST = "b19ed07c5d1d752b8194786ab0556cf5227800fa58d41696ae88aa036f9864f4"


def test_schwarz_solve_order_28_repr_pinned():
    assert digest(solve_schwarz(SCHWARZ_SERIES_28)) == SCHWARZ_28_DIGEST


# the dense rational order-28 map is the one `test_faber_inverse_repr_pinned`
# inverts by Miller's recurrence, so both routes share one digest
REVERT_DIGESTS = {
    ("Fraction", "dense", 28): "02c995856f0131f9122f9110694e3b2fa578e6eeb4f787d1325bc3fdf21dd2ce",
    ("Fraction", "dense", 40): "b6ca47e76875fc3fd276e471406049fa142495fc58d7fd9a70178bbc20c449cc",
    ("Fraction", "sparse", 28): "1b6aa0e84aedfe05ebb2dbc1ff371ab7c88bffccc6ad19c339fe935931b9b6d8",
    ("Fraction", "sparse", 40): "b455974c6afdbd62be1e012a2d9054c5189994663f541ef0c6d8f7a819a1f997",
    ("QSqrt5", "dense", 28): "8b7e50a29ca3e0ac07ae2da60661cf57e29d2162b2f9406d4c75d4abc2e960fd",
    ("QSqrt5", "dense", 40): "41f875240a3a132eb6a366e8e7c4da58463d48479e318bd4fbdc434b530c331d",
    ("QSqrt5", "sparse", 28): "ed3e08fbcc4d6d37347a51110bc052fd4b8103980f2a6ad5d30b87899257bfa1",
    ("QSqrt5", "sparse", 40): "b38428b37e46816d51884f958223e2dd9e9dabb71f918ad4f1ae83ee20571b5c",
    ("ExactComplex", "dense", 28): "f203b727030abb2215582a4ea9d0e22a960ee8386089bbd7bd3f6ac105e9ff78",
    ("ExactComplex", "dense", 40): "fcfe1e5d25f0d128288f9a27a1b4812d78bbcc508da0d71944a37c8132e4e4d8",
    ("ExactComplex", "sparse", 28): "2a2d0889836fccdb85cadde9475669a95095922b63a3f233e8a718712523f125",
    ("ExactComplex", "sparse", 40): "8fedf259cb69966d4a449667e13f4398ef6740c645aba689219b8aba34006bb0",
    # large heights: the dense order-20 map over TOP_DENOMINATOR at z^20 only,
    # and over the DISTINCT_DENOMINATORS at z^2 .. z^20
    ("Fraction", "top-200-digit", 20): "5a9d870da7f3c3befb9aecbb3850a68a719a43055afa5aa171a95bf6feeb10df",
    ("Fraction", "distinct-30-digit", 20): "d6f314ef9d69fe7d73e15d15b4ff37c123dd3b28c0ffccc609c766cfd67c6cf6",
    ("QSqrt5", "top-200-digit", 20): "cea235e0d7072d05c157659fb5894c831b8b45c47bade821294542314955c8d4",
    ("QSqrt5", "distinct-30-digit", 20): "1c02f5e7665fd0e50b0e28067090878e00f7580ed2fd55916ba6f2fed12c99e8",
    ("ExactComplex", "top-200-digit", 20): "416eb2f5c3cc2a6e20359771acf90977f68e14abd9d879c39745adc27d35166d",
    ("ExactComplex", "distinct-30-digit", 20): "7fa41a0b3fc7f752c7c770e00e52234238f9cad2ea61212d291938a595493fff",
}


# a 200-digit denominator, and 19 distinct 30-digit ones
TOP_DENOMINATOR = 10**199 + 153
DISTINCT_DENOMINATORS = [10**29 + 2 * k + 1 for k in range(19)]


def reverted(field_name: str, shape: str, order: int):
    upper = field_values(field_name, order - 1, sparse=shape == "sparse")
    if shape == "top-200-digit":
        upper[-1] *= Fraction(1, TOP_DENOMINATOR)
    elif shape == "distinct-30-digit":
        upper = [c * Fraction(1, den) for c, den in zip(upper, DISTINCT_DENOMINATORS)] + upper[19:]
    return NormalizedSeries.from_upper(upper, FIELDS[field_name]).revert()


@pytest.mark.parametrize("field_name, shape, order", sorted(REVERT_DIGESTS))
def test_revert_repr_pinned(field_name, shape, order):
    assert digest(reverted(field_name, shape, order)) == REVERT_DIGESTS[field_name, shape, order]


def order_20_pair(field_name: str):
    """A dense series with constant term 1, and a sparse one with a zero constant term."""
    field = FIELDS[field_name]
    dense = TruncatedSeries([1] + field_values(field_name, 20), field)
    sparse = TruncatedSeries(field_values(field_name, 21, sparse=True)[::-1], field)
    return dense, sparse


def product(field_name: str):
    dense, sparse = order_20_pair(field_name)
    return dense * sparse


def reciprocal(field_name: str):
    dense, _ = order_20_pair(field_name)
    return dense.reciprocal()


PRODUCT_DIGESTS = {
    "Fraction": "7967b9931bfb75d9b4022092ed2bceead3f1adcc60a0d99e600f03293e066dc4",
    "QSqrt5": "ec3bc1b32ea3f562c20e129dd84e93b635980bae37b9c8bd516de03c2c4ae04d",
    "ExactComplex": "8f3b84f539d3b926bad370575a5210ffb0f6b2f8ddbb497745b65263af2d5008",
}

RECIPROCAL_DIGESTS = {
    "Fraction": "f563824d894641a01bed700b95a69a9656425105655095b26d9e66385f0abb30",
    "QSqrt5": "e97752390c58907cdd64795e67acb3179eb8a980ba80c52b488bdb44c0b7894f",
    "ExactComplex": "062b701ddf74944ef934caae21ee13edbe286318728bab55125dc038e4fcaddb",
}


@pytest.mark.parametrize("field_name", sorted(PRODUCT_DIGESTS))
def test_product_repr_pinned(field_name):
    assert digest(product(field_name)) == PRODUCT_DIGESTS[field_name]


@pytest.mark.parametrize("field_name", sorted(RECIPROCAL_DIGESTS))
def test_reciprocal_repr_pinned(field_name):
    assert digest(reciprocal(field_name)) == RECIPROCAL_DIGESTS[field_name]


INVERSE_DIGESTS = {
    20: "72e2a57f0c8e861a58d40feff99592fc7503ebb35d9a6724f42c82c71714b762",
    28: "02c995856f0131f9122f9110694e3b2fa578e6eeb4f787d1325bc3fdf21dd2ce",
}


def faber_inverse(order):
    return faber_inverse_coefficients(NormalizedSeries.from_upper(INVERSE_UPPER[: order - 1]))


@pytest.mark.parametrize("order", sorted(INVERSE_DIGESTS))
def test_faber_inverse_repr_pinned(order):
    assert digest(faber_inverse(order)) == INVERSE_DIGESTS[order]


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


def faber_values(field):
    a = FABER_INPUTS[field]
    return [faber_polynomial(n, p, a) for n in (1, 4, 10) for p in (-11, -4, 0, 1, 2, 9)]


@pytest.mark.parametrize("field", [Fraction, QSqrt5, ExactComplex], ids=lambda f: f.__name__)
def test_faber_polynomial_repr_pinned(field):
    assert digest(faber_values(field)) == FABER_DIGESTS[field]


COMPOSE_DIGEST = "8fe15ca89035fa23883b240ebde67c4dfe29ed2e0ee214abf914a3d428792b1d"


def golden_composed():
    # the witness check's pairing: the Q(sqrt 5) generator series composed
    # with an ExactComplex disc map
    w = TruncatedSeries(
        [ExactComplex(0), *SCHWARZ_SERIES.coeffs[1:], *SCHWARZ_SERIES.coeffs[1:4]], ExactComplex
    )
    return golden_series(11).compose(w)


def test_golden_compose_repr_pinned():
    assert digest(golden_composed()) == COMPOSE_DIGEST


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


def command_stdout_digest(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(COMMAND_DIGESTS), ids=lambda a: a[0])
def test_command_stdout_pinned(argv):
    assert command_stdout_digest(*argv) == COMMAND_DIGESTS[argv]


BOUND_OPS = [
    OperatorParams(Fraction(1), Fraction(1)),
    OperatorParams(Fraction(1, 2), Fraction(1, 4)),
    OperatorParams(Fraction(3, 4), Fraction(5, 2)),
    OperatorParams(Fraction(7, 3), Fraction(2, 3)),
]


def aggregates(op):
    """The rational aggregates P and Q of the second-coefficient bounds."""
    mu, rho = op.mu, op.rho
    big_p = 3 * (mu + 1) * (mu + 2) / ((rho + 1) * (rho + 2))
    big_q = 4 * (mu + 1) ** 2 / (rho + 1) ** 2
    return big_p, big_q


# each weight as a function of (P, Q), so the last three can sit on an
# edge of the a3 bracket or of the branch discriminant
BOUND_WEIGHTS = {
    "rational": lambda p, q: ExactComplex(Fraction(2, 3)),
    "pythagorean": lambda p, q: ExactComplex(Fraction(12, 5), Fraction(-16, 5)),
    "irrational-modulus": lambda p, q: ExactComplex(Fraction(1, 3), Fraction(-2, 7)),
    "sqrt5-complex": lambda p, q: ExactComplex(QSqrt5(Fraction(1, 2), Fraction(1, 3)), Fraction(2, 3)),
    "sqrt5-real": lambda p, q: ExactComplex(QSqrt5(Fraction(-1, 2), Fraction(3, 4))),
    # P |gamma| |tau| = Q: the a3 bracket numerator vanishes
    "zero-bracket": lambda p, q: ExactComplex(q / (p * ABS_TAU)),
    "zero-bracket-rotated": lambda p, q: (q / (p * ABS_TAU)) * ExactComplex(Fraction(3, 5), Fraction(4, 5)),
    # gamma P - 3Q = 0: the branch discriminant vanishes
    "vanishing-discriminant": lambda p, q: ExactComplex(3 * q / p),
}

BOUND_DIGESTS = {
    ("rational", 53): "8a88b767939631be2920f42ade9fad456a420724017c23c50129b09671a14be3",
    ("rational", 128): "ff69d17b04427a9b8323134b90e29f75e491199efd84805277f737a42933c5fc",
    ("rational", 256): "ff69d17b04427a9b8323134b90e29f75e491199efd84805277f737a42933c5fc",
    ("pythagorean", 53): "5381da32f8bb5d0c3828671396b18c7134adb9765da169115f5c3b1833f8da7a",
    ("pythagorean", 128): "5cd1c163b467a68a4a71da2dc2f1dd470b417cdcc727b23c3b5e4b6b35e4cf91",
    ("pythagorean", 256): "5cd1c163b467a68a4a71da2dc2f1dd470b417cdcc727b23c3b5e4b6b35e4cf91",
    ("irrational-modulus", 53): "22ae188ee7bfb2d203b3c4fadebe1f1b0ad2769fe45dfc1d256148da08af28b5",
    ("irrational-modulus", 128): "fb0cd0fda34a3d20d10b6f5dad55c195a247431cb1735e5d6be2979f31e0b7fd",
    ("irrational-modulus", 256): "fb0cd0fda34a3d20d10b6f5dad55c195a247431cb1735e5d6be2979f31e0b7fd",
    ("sqrt5-complex", 53): "26db979db501829bfe22fcb9546d9c035086a02ff2529b62b63515e20551aba5",
    ("sqrt5-complex", 128): "6ca89e56afe0cf85d2bdc1572f2be5bfdcc6cb0d90098b3321504420a8a53bdb",
    ("sqrt5-complex", 256): "6ca89e56afe0cf85d2bdc1572f2be5bfdcc6cb0d90098b3321504420a8a53bdb",
    ("sqrt5-real", 53): "e0d862a58881ff80f48390ac827db5897b27c9bdb64a00c31e0fa512ad52885e",
    ("sqrt5-real", 128): "672fd7a8b3bccae48c624b2ba47044db756a1c0168f19336a10d12b0cce48c96",
    ("sqrt5-real", 256): "672fd7a8b3bccae48c624b2ba47044db756a1c0168f19336a10d12b0cce48c96",
    ("zero-bracket", 53): "802ebf7c48d9620c0d3a960893f2efa558c2082fb65346008d445b8187dbbee1",
    ("zero-bracket", 128): "0c2c78a322364ec5f4cb27db7008582d936de57483c95183ebeb4d5fb759c4d6",
    ("zero-bracket", 256): "0c2c78a322364ec5f4cb27db7008582d936de57483c95183ebeb4d5fb759c4d6",
    ("zero-bracket-rotated", 53): "ea847b02a7abd74175d7b0e08211b69c5cd3f2f0e1f1c5fcddb4d9a03e88f5ad",
    ("zero-bracket-rotated", 128): "fbdb0e9cb8d9c7060e35e5e7f70aee18d382c24d68cc11079c7123fa034b4e65",
    ("zero-bracket-rotated", 256): "fbdb0e9cb8d9c7060e35e5e7f70aee18d382c24d68cc11079c7123fa034b4e65",
    ("vanishing-discriminant", 53): "1555fd74e2397c0dfb9250a5110360474a624cdbca6998da9e1d03ac65661f15",
    ("vanishing-discriminant", 128): "47eee417736c211d96ebfb62504edf74440a64b6a27659f1455c660d86f440b9",
    ("vanishing-discriminant", 256): "47eee417736c211d96ebfb62504edf74440a64b6a27659f1455c660d86f440b9",
    # at 1024 bits the enclosures' endpoints carry thousands of bits; the
    # reports equal those at 128 bits, where the 2**-52 rounding slack
    # already dominates every error bound
    ("rational", 1024): "ff69d17b04427a9b8323134b90e29f75e491199efd84805277f737a42933c5fc",
    ("pythagorean", 1024): "5cd1c163b467a68a4a71da2dc2f1dd470b417cdcc727b23c3b5e4b6b35e4cf91",
    ("irrational-modulus", 1024): "fb0cd0fda34a3d20d10b6f5dad55c195a247431cb1735e5d6be2979f31e0b7fd",
    ("sqrt5-complex", 1024): "6ca89e56afe0cf85d2bdc1572f2be5bfdcc6cb0d90098b3321504420a8a53bdb",
    ("sqrt5-real", 1024): "672fd7a8b3bccae48c624b2ba47044db756a1c0168f19336a10d12b0cce48c96",
    ("zero-bracket", 1024): "0c2c78a322364ec5f4cb27db7008582d936de57483c95183ebeb4d5fb759c4d6",
    ("zero-bracket-rotated", 1024): "fbdb0e9cb8d9c7060e35e5e7f70aee18d382c24d68cc11079c7123fa034b4e65",
    ("vanishing-discriminant", 1024): "47eee417736c211d96ebfb62504edf74440a64b6a27659f1455c660d86f440b9",
}


def bound_reports(weight: str, precision: int) -> list:
    reports = []
    for op in BOUND_OPS:
        g = BOUND_WEIGHTS[weight](*aggregates(op))
        reports += [bound_theorem1(n, g, op, precision) for n in (3, 7)]
        reports += [bound_a2(g, op, precision), bound_a3(g, op, precision)]
    return reports


@pytest.mark.parametrize("weight, precision", sorted(BOUND_DIGESTS))
def test_bound_reports_repr_pinned(weight, precision):
    assert digest(bound_reports(weight, precision)) == BOUND_DIGESTS[weight, precision]


def float_values() -> list:
    """20 seeded values of Q(sqrt 5, i) whose parts run from one digit to 200 digits."""
    rng = random.Random(2027)

    def part(digits):
        return Fraction(rng.randint(-(10**digits), 10**digits), rng.randint(1, 10**digits))

    values = []
    for k in range(20):
        digits = (1, 6, 30, 200)[k % 4]
        re = QSqrt5(part(digits), part(digits) if k % 5 else 0)
        values.append(ExactComplex(re, QSqrt5(part(digits), part(digits)) if k % 3 else 0))
    return values


def floats(precision: int) -> list:
    return [to_float(x, precision) for x in float_values()]


FLOAT_DIGESTS = {
    53: "79131425f692c973396353dfb94ede7dcf695af5290f7422ccd4bcd61ca197d5",
    1024: "efa4aaf5a4e8ba6744521e0819fc22e983ff497ac2dd3723e9e055ed6ba05512",
}


@pytest.mark.parametrize("precision", sorted(FLOAT_DIGESTS))
def test_to_float_repr_pinned(precision):
    assert digest(floats(precision)) == FLOAT_DIGESTS[precision]


def repr_digest(compute):
    return lambda *key: digest(compute(*key))


# (test, its stored digests by parameters, the current digest of one case)
PINS = [
    ("test_witness_repr_pinned", WITNESS_DIGESTS, repr_digest(witness_report)),
    ("test_schwarz_solve_repr_pinned", {(): SCHWARZ_DIGEST}, lambda: digest(solve_schwarz(SCHWARZ_SERIES))),
    (
        "test_schwarz_solve_order_28_repr_pinned",
        {(): SCHWARZ_28_DIGEST},
        lambda: digest(solve_schwarz(SCHWARZ_SERIES_28)),
    ),
    ("test_revert_repr_pinned", REVERT_DIGESTS, repr_digest(reverted)),
    ("test_product_repr_pinned", PRODUCT_DIGESTS, repr_digest(product)),
    ("test_reciprocal_repr_pinned", RECIPROCAL_DIGESTS, repr_digest(reciprocal)),
    ("test_faber_inverse_repr_pinned", INVERSE_DIGESTS, repr_digest(faber_inverse)),
    ("test_faber_polynomial_repr_pinned", FABER_DIGESTS, repr_digest(faber_values)),
    ("test_golden_compose_repr_pinned", {(): COMPOSE_DIGEST}, repr_digest(golden_composed)),
    ("test_command_stdout_pinned", COMMAND_DIGESTS, command_stdout_digest),
    ("test_bound_reports_repr_pinned", BOUND_DIGESTS, repr_digest(bound_reports)),
    ("test_to_float_repr_pinned", FLOAT_DIGESTS, repr_digest(floats)),
]


def case_label(test: str, key) -> str:
    parts = key if isinstance(key, tuple) else (key,)
    return f"{test}[{'-'.join(getattr(part, '__name__', str(part)) for part in parts)}]"


if __name__ == "__main__":
    moved = 0
    for test, stored, current in PINS:
        for key, expected in stored.items():
            now = current(*key) if isinstance(key, tuple) else current(key)
            moved += now != expected
            print(f"{'ok' if now == expected else 'CHANGED'} {now} {case_label(test, key)}")
    print(f"{moved} of {sum(len(stored) for _, stored, _ in PINS)} pinned cases changed", file=sys.stderr)


def test_report_lists_every_pinned_test():
    pinned_tests = [name for name in globals() if name.startswith("test_") and name.endswith("_pinned")]
    assert sorted(test for test, _, _ in PINS) == sorted(pinned_tests)
