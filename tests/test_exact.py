"""Exact scalar layer: field axioms, sign logic, conversion bounds, text grammar."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from faberfib import (
    ExactComplex,
    Interval,
    QSqrt5,
    fraction_sqrt,
    parse_qsqrt5,
    parse_rational,
    parse_scalar,
    render_qsqrt5,
    render_scalar,
    to_float,
)
from faberfib.exact import MAX_SCALAR_NESTING, IntervalStraddleError, _enclosure_float

SQRT5 = QSqrt5(0, 1)
TAU = QSqrt5(Fraction(1, 2), Fraction(-1, 2))


def rand_fraction(rng, span=60):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_qsqrt5(rng):
    return QSqrt5(rand_fraction(rng), rand_fraction(rng))


def rand_complex(rng):
    return ExactComplex(rand_qsqrt5(rng), rand_qsqrt5(rng))


def mp_value(x, dps=60):
    with mpmath.workdps(dps):
        if isinstance(x, QSqrt5):
            return mpmath.mpf(x.rational_part.numerator) / x.rational_part.denominator + (
                mpmath.mpf(x.radical_part.numerator) / x.radical_part.denominator
            ) * mpmath.sqrt(5)
        return mpmath.mpf(x.numerator) / x.denominator


class TestQSqrt5Field:
    def test_tau_characteristic_equation(self):
        assert TAU * TAU == TAU + 1
        assert TAU * TAU - TAU - 1 == QSqrt5(0)

    def test_sqrt5_squares_to_five(self):
        assert SQRT5 * SQRT5 == QSqrt5(5)

    def test_conjugate_division_example(self):
        # 1 / (1 + sqrt5) rationalizes through the conjugate, denominator -4
        inv = 1 / (1 + SQRT5)
        assert inv == QSqrt5(Fraction(-1, 4), Fraction(1, 4))

    def test_field_axioms_randomized(self):
        rng = random.Random(101)
        for _ in range(200):
            x, y, z = rand_qsqrt5(rng), rand_qsqrt5(rng), rand_qsqrt5(rng)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x
            assert x * y == y * x
            if x:
                assert x * (1 / x) == QSqrt5(1)
                assert x * x.inverse() == QSqrt5(1)

    def test_norm_multiplicative(self):
        rng = random.Random(102)
        for _ in range(100):
            x, y = rand_qsqrt5(rng), rand_qsqrt5(rng)
            assert (x * y).norm() == x.norm() * y.norm()

    def test_pow_matches_repeated_product(self):
        rng = random.Random(103)
        for _ in range(50):
            x = rand_qsqrt5(rng)
            acc = QSqrt5(1)
            for k in range(6):
                assert x**k == acc
                acc = acc * x
            if x:
                assert x**-3 == 1 / (x * x * x)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            _ = QSqrt5(1) / QSqrt5(0)
        with pytest.raises(ZeroDivisionError):
            QSqrt5(0).inverse()

    def test_promotion_and_equality_across_types(self):
        assert QSqrt5(Fraction(2, 3)) == Fraction(2, 3)
        assert QSqrt5(3) == 3
        assert QSqrt5(3, 1) != 3
        assert Fraction(1, 2) + TAU == QSqrt5(1, Fraction(-1, 2))
        assert hash(QSqrt5(Fraction(2, 3))) == hash(Fraction(2, 3))

    def test_constructor_copies(self):
        x = rand_qsqrt5(random.Random(104))
        assert QSqrt5(x) == x
        with pytest.raises(TypeError):
            QSqrt5(x, 1)


class TestRejectsFloats:
    """A float would bring its binary expansion into the exact core."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QSqrt5(0.1),
            lambda: QSqrt5(1, 0.5),
            lambda: QSqrt5(Fraction(1, 2), 2.0),
            lambda: ExactComplex(0.5),
            lambda: ExactComplex(1, 0.25),
            lambda: ExactComplex(QSqrt5(1), 1.0),
            lambda: Interval(0.1, 0.5),
            lambda: Interval(Fraction(1, 2), 1.0),
            lambda: Interval.point(0.25),
            lambda: fraction_sqrt(0.25),
        ],
        ids=["qsqrt5", "qsqrt5-radical", "qsqrt5-fraction-float", "complex", "complex-imag",
             "complex-qsqrt5-float", "interval", "interval-hi", "interval-point",
             "fraction-sqrt"],
    )
    def test_float_components_raise(self, build):
        with pytest.raises(TypeError):
            build()

    def test_exact_components_accepted(self):
        assert QSqrt5(1, Fraction(1, 2)) == QSqrt5(Fraction(1), Fraction(1, 2))
        assert QSqrt5(True) == 1
        assert ExactComplex(QSqrt5(0, 1), Fraction(1, 3)).imag == Fraction(1, 3)
        assert ExactComplex(ExactComplex(2, 1)) == ExactComplex(2, 1)


# -- independent route: Q(sqrt 5) as a pair of Fractions -----------------------


def pair_of(x):
    return (x.rational_part, x.radical_part)


def pair_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def pair_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def pair_mul(x, y):
    return (x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pair_inverse(x):
    norm = x[0] * x[0] - 5 * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def pair_pow(x, e):
    base = pair_inverse(x) if e < 0 else x
    acc = (Fraction(1), Fraction(0))
    for _ in range(abs(e)):
        acc = pair_mul(acc, base)
    return acc


def pair_sign(x):
    a, b = x
    # a + b*sqrt5 has the sign of a when a**2 > 5*b**2, else the sign of b
    if a * a > 5 * b * b:
        return 1 if a > 0 else -1
    if b == 0:
        return 0
    return 1 if b > 0 else -1


def pair_hash(x):
    return hash(x[0]) if x[1] == 0 else hash((x[0], x[1], "sqrt5"))


def triple(x):
    """The stored integer coordinates (a, b, d) of x = (a + b*sqrt5)/d."""
    return (x._a, x._b, x._d)


def assert_reduced(x):
    a, b, d = triple(x)
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0
    assert math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == pair_of(x)


def pair_sample(rng):
    """Random components, with some shared factors, zeros and negative norms."""
    kind = rng.randrange(5)
    if kind == 0:
        return (Fraction(0), Fraction(0))
    if kind == 1:  # equal denominators with a common factor left in
        k, d = rng.randint(1, 6), rng.randint(1, 12)
        return (Fraction(k * rng.randint(-9, 9), k * d), Fraction(k * rng.randint(-9, 9), k * d))
    if kind == 2:  # |b| sqrt5 > |a|: negative norm
        return (rand_fraction(rng, 5), Fraction(rng.choice((-1, 1)) * rng.randint(6, 40), rng.randint(1, 5)))
    if kind == 3:
        return (rand_fraction(rng), Fraction(0))
    return (rand_fraction(rng), rand_fraction(rng))


class TestAgainstFractionPairs:
    def test_ring_ops_match(self):
        rng = random.Random(115)
        for _ in range(400):
            p, q = pair_sample(rng), pair_sample(rng)
            x, y = QSqrt5(*p), QSqrt5(*q)
            for result, expected in (
                (x + y, pair_add(p, q)),
                (x - y, pair_sub(p, q)),
                (x * y, pair_mul(p, q)),
                (-x, (-p[0], -p[1])),
                (x.conjugate(), (p[0], -p[1])),
            ):
                assert pair_of(result) == expected
                assert_reduced(result)
            assert x.norm() == p[0] * p[0] - 5 * p[1] * p[1]
            if q != (0, 0):
                assert pair_of(x / y) == pair_mul(p, pair_inverse(q))
                assert pair_of(y.inverse()) == pair_inverse(q)
                assert_reduced(x / y)
                assert_reduced(y.inverse())
            else:
                with pytest.raises(ZeroDivisionError):
                    _ = x / y

    def test_mixed_operands_match(self):
        rng = random.Random(116)
        for _ in range(200):
            p = pair_sample(rng)
            x = QSqrt5(*p)
            for r in (rng.randint(-7, 7), rand_fraction(rng)):
                rp = (Fraction(r), Fraction(0))
                assert pair_of(x + r) == pair_of(r + x) == pair_add(p, rp)
                assert pair_of(x - r) == pair_sub(p, rp)
                assert pair_of(r - x) == pair_sub(rp, p)
                assert pair_of(x * r) == pair_of(r * x) == pair_mul(p, rp)
                for result in (x + r, x - r, r - x, x * r):
                    assert_reduced(result)
                if r:
                    assert pair_of(x / r) == pair_mul(p, pair_inverse(rp))
                if p != (0, 0):
                    assert pair_of(r / x) == pair_mul(rp, pair_inverse(p))

    def test_powers_match(self):
        rng = random.Random(117)
        for _ in range(100):
            p = pair_sample(rng)
            x = QSqrt5(*p)
            for e in range(-4, 7):
                if e < 0 and p == (0, 0):
                    with pytest.raises(ZeroDivisionError):
                        _ = x**e
                    continue
                result = x**e
                assert pair_of(result) == pair_pow(p, e)
                assert_reduced(result)

    def test_order_equality_and_hash_match(self):
        rng = random.Random(118)
        for _ in range(400):
            p, q = pair_sample(rng), pair_sample(rng)
            x, y = QSqrt5(*p), QSqrt5(*q)
            assert x.sign() == pair_sign(p)
            assert (x < y) == (pair_sign(pair_sub(p, q)) < 0)
            assert (x == y) == (p == q)
            assert hash(x) == pair_hash(p)
            assert bool(x) == (p != (0, 0))
            assert x.is_rational == (p[1] == 0)

    def test_cancellation_gives_the_one_zero(self):
        rng = random.Random(119)
        zero = QSqrt5(0)
        assert triple(zero) == (0, 0, 1)
        for _ in range(100):
            x = QSqrt5(*pair_sample(rng))
            for result in (x - x, x + (-x), x * 0, 0 * x, x * zero, x - QSqrt5(x)):
                assert triple(result) == (0, 0, 1)
                assert result == zero and not result
                assert hash(result) == hash(0)
                assert repr(result) == "QSqrt5(Fraction(0, 1), Fraction(0, 1))"

    def test_non_coprime_parts_are_reduced(self):
        x = QSqrt5(Fraction(2, 4), Fraction(6, 8))
        assert triple(x) == (2, 3, 4)
        assert repr(x) == "QSqrt5(Fraction(1, 2), Fraction(3, 4))"
        assert triple(QSqrt5(Fraction(1, 6), Fraction(1, 10))) == (5, 3, 30)
        assert triple(QSqrt5(Fraction(1, 2)) + QSqrt5(Fraction(1, 2))) == (1, 0, 1)
        assert triple(QSqrt5(Fraction(3, 4), Fraction(1, 4)) + QSqrt5(Fraction(1, 4), Fraction(3, 4))) == (1, 1, 1)
        # a negative norm moves its sign into the numerator of the inverse
        y = QSqrt5(1, 1)  # norm 1 - 5 = -4
        assert triple(y.inverse()) == (-1, 1, 4)
        assert triple(QSqrt5(6, 4)) == (6, 4, 1)
        assert triple(QSqrt5(Fraction(6, 7), Fraction(4, 7)) * 7) == (6, 4, 1)


class TestSign:
    def test_spec_examples(self):
        assert TAU.sign() == -1
        assert QSqrt5(0).sign() == 0
        assert QSqrt5(3, -1).sign() == 1  # 3 - sqrt5 > 0 since 9 > 5

    def test_ordering_total(self):
        rng = random.Random(105)
        values = [rand_qsqrt5(rng) for _ in range(50)]
        ordered = sorted(values)
        for a, b in zip(ordered, ordered[1:]):
            assert a <= b
            assert not b < a

    def test_sign_agrees_with_float(self):
        rng = random.Random(106)
        for _ in range(300):
            x = rand_qsqrt5(rng)
            value, error = to_float(x, 128)
            if abs(value) > error:
                assert x.sign() == (1 if value > 0 else -1)

    def test_abs(self):
        assert abs(TAU) == -TAU
        assert abs(QSqrt5(3, -1)) == QSqrt5(3, -1)

    def test_golden_section_identity(self):
        t = -TAU  # |tau|
        assert 1 / t - t / (1 - t) == QSqrt5(0)


class TestExactComplex:
    def test_field_axioms_randomized(self):
        rng = random.Random(107)
        for _ in range(100):
            x, y, z = rand_complex(rng), rand_complex(rng), rand_complex(rng)
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            if x:
                assert x * x.inverse() == ExactComplex(1)
                assert x / x == ExactComplex(1)

    def test_abs_squared_exact(self):
        z = ExactComplex(Fraction(3, 5), Fraction(4, 5))
        assert z.abs_squared() == QSqrt5(1)
        rng = random.Random(108)
        for _ in range(50):
            w = rand_complex(rng)
            assert w.abs_squared() == (w * w.conjugate()).real
            assert (w * w.conjugate()).imag == QSqrt5(0)

    def test_cross_type_equality(self):
        assert ExactComplex(TAU) == TAU
        assert ExactComplex(2) == 2
        assert ExactComplex(0, 1) != 1
        assert hash(ExactComplex(TAU)) == hash(TAU)

    def test_to_views(self):
        assert ExactComplex(Fraction(1, 3)).to_fraction() == Fraction(1, 3)
        with pytest.raises(ValueError):
            ExactComplex(0, 1).to_fraction()
        with pytest.raises(ValueError):
            ExactComplex(0, 1).to_qsqrt5()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            _ = ExactComplex(1) / ExactComplex(0)

    def test_complex_conversion(self):
        z = ExactComplex(QSqrt5(0, 1), Fraction(1, 2))
        as_complex = complex(z)
        assert abs(as_complex - complex(math.sqrt(5), 0.5)) < 1e-14


class TestToFloat:
    def test_examples_with_bounds(self):
        value, error = to_float(TAU, 128)
        assert abs(value - (1 - math.sqrt(5)) / 2) <= error + 1e-16
        value, error = to_float(Fraction(1, 3), 128)
        assert abs(value - 1 / 3) <= error + 1e-16
        value, error = to_float(QSqrt5(Fraction(3, 2), Fraction(-1, 2)), 128)
        assert abs(value - (3 - math.sqrt(5)) / 2) <= error + 1e-16

    def test_error_bound_honest_against_mpmath(self):
        rng = random.Random(109)
        for _ in range(100):
            x = rand_qsqrt5(rng)
            value, error = to_float(x, 128)
            true = mp_value(x)
            assert abs(mpmath.mpf(value) - true) <= mpmath.mpf(error) + mpmath.mpf(1e-300)

    def test_rejects_toy_precision(self):
        with pytest.raises(ValueError):
            to_float(TAU, 52)

    def test_complex_input(self):
        z = ExactComplex(Fraction(1, 3), TAU)
        value, error = to_float(z, 128)
        assert isinstance(value, complex)
        assert abs(value - complex(1 / 3, (1 - math.sqrt(5)) / 2)) <= error + 1e-15

    def test_adaptive_dunder_float_survives_cancellation(self):
        # tau**n has huge components but tiny value; naive float(a) + float(b)*sqrt5 would shred it
        assert abs((TAU**60).rational_part) > 10**11
        # the documented bound, checked exactly in Q(sqrt 5)
        slack = (Fraction(1, 1 << 53) + Fraction(1, 1 << 61)) / (1 - Fraction(1, 1 << 61))
        rng = random.Random(113)
        values = [scale * TAU**n for n in (1, 2, 17, 60, 200, 701, 1000) for scale in (1, -1, 3)]
        values += [rand_qsqrt5(rng) for _ in range(100)] + [QSqrt5(Fraction(1, 3)), QSqrt5(0, 7)]
        for x in values:
            assert abs(QSqrt5(Fraction(float(x))) - x) <= abs(x) * slack


class TestInterval:
    def test_from_qsqrt5_encloses(self):
        rng = random.Random(110)
        for _ in range(100):
            x = rand_qsqrt5(rng)
            iv = Interval.from_qsqrt5(x, 128)
            assert QSqrt5(iv.lo) <= x <= QSqrt5(iv.hi)
            assert iv.hi - iv.lo < Fraction(1, 1 << 100)

    def test_sqrt_enclosure(self):
        rng = random.Random(111)
        for _ in range(100):
            q = abs(rand_fraction(rng)) + Fraction(1, 7)
            iv = Interval.point(q).sqrt(128)
            assert iv.lo * iv.lo <= q <= iv.hi * iv.hi

    def test_arithmetic_encloses(self):
        rng = random.Random(112)
        for _ in range(100):
            a, b = abs(rand_fraction(rng)) + 1, abs(rand_fraction(rng)) + 1
            ia, ib = Interval.point(a).sqrt(64), Interval.point(b).sqrt(64)
            prod = ia * ib
            true = Interval.point(a * b).sqrt(128)
            assert prod.lo <= true.hi and true.lo <= prod.hi
            ratio = ia / ib
            assert ratio.lo <= ratio.hi

    def test_div_straddle_raises(self):
        with pytest.raises(IntervalStraddleError):
            Interval.point(1) / Interval(Fraction(-1), Fraction(1))


# -- oracle: the interval on Fraction endpoints that the integer one replaced --


class FractionInterval:
    """Interval arithmetic on reduced Fraction endpoints, as `Interval` once ran it."""

    def __init__(self, lo, hi):
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        assert self.lo <= self.hi

    @classmethod
    def from_qsqrt5(cls, x, bits):
        if x.radical_part == 0:
            return cls(x.rational_part, x.rational_part)
        s = math.isqrt(5 << (2 * bits))
        s5 = cls(Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits))
        return cls(x.rational_part, x.rational_part) + cls(x.radical_part, x.radical_part) * s5

    def __add__(self, other):
        return FractionInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return FractionInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other):
        products = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return FractionInterval(min(products), max(products))

    def __truediv__(self, other):
        if other.lo <= 0 <= other.hi:
            raise IntervalStraddleError("interval denominator straddles zero")
        quotients = [a / b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return FractionInterval(min(quotients), max(quotients))

    def sqrt(self, bits):
        if self.hi < 0:
            raise ValueError("square root of a negative interval")

        def bound(q, upper):
            if q == 0:
                return Fraction(0)
            s = math.isqrt((q.numerator * q.denominator) << (2 * bits))
            return Fraction(s + 1 if upper else s, q.denominator << bits)

        return FractionInterval(bound(max(self.lo, Fraction(0)), False), bound(self.hi, True))


def fraction_enclosure_float(iv):
    """The (value, error) pair `_enclosure_float` gave from Fraction endpoints."""
    mid = (iv.lo + iv.hi) / 2
    err = (iv.hi - iv.lo) / 2 + abs(mid) * Fraction(1, 1 << 52)
    error = float(err * (1 + Fraction(1, 1 << 40)))
    if error == 0.0 and err > 0:
        error = math.ulp(0.0)
    return float(mid), error


def rand_rational(rng, digits):
    if rng.randrange(8) == 0:
        return Fraction(0)
    return Fraction(rng.randint(-(10**digits), 10**digits), rng.randint(1, 10**digits))


class TestIntervalAgainstFractionEndpoints:
    """Each operation gives the oracle's endpoints, and each enclosure its floats."""

    @staticmethod
    def assert_same(pair):
        iv, ref = pair
        assert (iv.lo, iv.hi) == (ref.lo, ref.hi)
        assert repr(_enclosure_float(iv)) == repr(fraction_enclosure_float(ref))

    @staticmethod
    def sample(rng, digits, bits):
        """An (Interval, FractionInterval) pair: mixed signs, zero width or Q(sqrt 5)."""
        kind = rng.randrange(4)
        if kind == 0:
            q = rand_rational(rng, digits)
            return Interval.point(q), FractionInterval(q, q)
        if kind == 1:
            x = QSqrt5(rand_rational(rng, digits), rand_rational(rng, digits))
            return Interval.from_qsqrt5(x, bits), FractionInterval.from_qsqrt5(x, bits)
        lo, hi = sorted((rand_rational(rng, digits), rand_rational(rng, digits)))
        if kind == 2:
            lo, hi = -abs(lo), abs(hi)  # straddles zero, or touches it
        return Interval(lo, hi), FractionInterval(lo, hi)

    @staticmethod
    def apply(op, pair, operand, bits):
        """op on both sides; the same exception type from both, or the new pair."""
        outcomes = []
        for iv, other in zip(pair, operand):
            try:
                if op == "sqrt":
                    outcomes.append(iv.sqrt(bits))
                else:
                    outcomes.append(getattr(iv, op)(other))
            except (IntervalStraddleError, ValueError) as exc:
                outcomes.append(type(exc))
        failed = [isinstance(outcome, type) for outcome in outcomes]
        assert failed[0] == failed[1] and (not failed[0] or outcomes[0] is outcomes[1])
        return None if failed[0] else tuple(outcomes)

    @pytest.mark.parametrize("bits", [53, 128, 1024])
    @pytest.mark.parametrize("digits", [3, 200])
    def test_chains_of_six(self, bits, digits):
        rng = random.Random(bits * 1000 + digits)
        ops = ("__add__", "__sub__", "__mul__", "__truediv__", "sqrt")
        failures = {IntervalStraddleError: 0, ValueError: 0}
        for _ in range(40):
            pair = self.sample(rng, digits, bits)
            self.assert_same(pair)
            for _ in range(6):
                op = rng.choice(ops)
                operand = self.sample(rng, digits, bits)
                result = self.apply(op, pair, operand, bits)
                if result is None:
                    failures[IntervalStraddleError if op == "__truediv__" else ValueError] += 1
                    pair = operand
                else:
                    pair = result
                self.assert_same(pair)
        # both failure paths were taken, on both sides alike
        assert all(failures.values())

    @pytest.mark.parametrize("bits", [53, 128, 1024])
    def test_sqrt_of_straddling_and_negative(self, bits):
        rng = random.Random(bits)
        for _ in range(40):
            lo, hi = -abs(rand_rational(rng, 30)) - Fraction(1, 7), abs(rand_rational(rng, 30))
            # adding and taking away 1/3 leaves [lo, hi] on unreduced endpoints
            third = Fraction(1, 3)
            iv, ref = Interval.point(third), FractionInterval(third, third)
            pair = (Interval(lo, hi) + iv - iv, FractionInterval(lo, hi) + ref - ref)
            assert pair[0]._ld != lo.denominator
            self.assert_same(pair)
            self.assert_same(self.apply("sqrt", pair, pair, bits))
            below = (Interval(lo, lo), FractionInterval(lo, lo))
            assert self.apply("sqrt", below, below, bits) is None
            with pytest.raises(ValueError):
                below[0].sqrt(bits)

    def test_error_underflow_takes_the_smallest_subnormal(self):
        half = Fraction(1, 1 << 1201)
        pair = (Interval(-half, half), FractionInterval(-half, half))
        self.assert_same(pair)
        assert _enclosure_float(pair[0]) == (0.0, math.ulp(0.0))

    def test_to_float_matches_oracle(self):
        rng = random.Random(116)
        for bits in (53, 128, 1024):
            for _ in range(60):
                x = QSqrt5(rand_rational(rng, rng.choice((2, 30, 200))), rand_rational(rng, 30))
                expected = fraction_enclosure_float(FractionInterval.from_qsqrt5(x, bits))
                assert repr(to_float(x, bits)) == repr(expected)


class TestFractionSqrt:
    def test_perfect_squares(self):
        assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert fraction_sqrt(Fraction(0)) == 0
        assert fraction_sqrt(Fraction(2)) is None
        assert fraction_sqrt(Fraction(-4)) is None
        rng = random.Random(113)
        for _ in range(100):
            q = rand_fraction(rng)
            assert fraction_sqrt(q * q) == abs(q)


class TestGrammar:
    def test_canonical_render_examples(self):
        assert render_qsqrt5(TAU) == "1/2 - 1/2*sqrt5"
        assert render_qsqrt5(QSqrt5(0, 1)) == "sqrt5"
        assert render_qsqrt5(QSqrt5(0, -1)) == "-sqrt5"
        assert render_qsqrt5(QSqrt5(Fraction(2, 3))) == "2/3"
        assert render_scalar(ExactComplex(0, 1)) == "i"
        assert render_scalar(ExactComplex(2, -1)) == "2 - i"
        assert render_scalar(ExactComplex(0, TAU)) == "(1/2 - 1/2*sqrt5)*i"

    def test_parser_accepts_spaced_and_parenthesised_forms(self):
        assert parse_qsqrt5("(1/2)+(-1/2)sqrt5") == TAU
        assert parse_qsqrt5("(1/2)+(−1/2)sqrt5") == TAU  # unicode minus
        assert parse_qsqrt5("1/2 - 1/2*sqrt5") == TAU
        assert parse_qsqrt5("-1/6 + 1/6*sqrt5") == QSqrt5(Fraction(-1, 6), Fraction(1, 6))
        assert parse_scalar("2+i") == ExactComplex(2, 1)
        assert parse_scalar("3/4*i") == ExactComplex(0, Fraction(3, 4))
        assert parse_scalar("(1/2 - 1/2*sqrt5)*i") == ExactComplex(0, TAU)
        assert parse_rational("-7/3") == Fraction(-7, 3)

    def test_round_trip_random(self):
        rng = random.Random(114)
        for _ in range(200):
            q = rand_fraction(rng)
            assert parse_rational(render_scalar(q)) == q
            x = rand_qsqrt5(rng)
            assert parse_qsqrt5(render_qsqrt5(x)) == x
            z = rand_complex(rng)
            assert parse_scalar(render_scalar(z)) == z

    def test_rejects_junk(self):
        for bad in ("", "1..2", "sqrt7", "1/", "2 +", "(1/2", "1/2)", "i*i*"):
            with pytest.raises(ValueError):
                parse_scalar(bad)

    def test_nesting_budget(self):
        def nested(depth):
            return "(" * depth + "1/2 + i" + ")" * depth

        assert parse_scalar(nested(MAX_SCALAR_NESTING)) == ExactComplex(Fraction(1, 2), 1)
        for depth in (MAX_SCALAR_NESTING + 1, 300):
            with pytest.raises(ValueError, match="nests parentheses deeper"):
                parse_scalar(nested(depth))
        # the budget bounds depth, not the number of groups
        assert parse_scalar("+".join(["(1)"] * 500)) == ExactComplex(500)
        assert parse_scalar("(" * 60 + "1" + ")" * 60 + "*" + "(" * 60 + "2" + ")" * 60) == ExactComplex(2)

    def test_view_parsers_reject_larger_fields(self):
        with pytest.raises(ValueError):
            parse_rational("1 + sqrt5")
        with pytest.raises(ValueError):
            parse_qsqrt5("1 + i")
