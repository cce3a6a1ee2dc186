"""Truncated power series: ring ops, composition, reversion, calculus helpers."""

import random
from fractions import Fraction

import pytest

from faberfib import (
    ExactComplex,
    NormalizedSeries,
    QSqrt5,
    TruncatedSeries,
    faber_inverse_coefficients,
    join_field,
)


def rand_fraction(rng, span=30):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_series(rng, order, field=Fraction):
    return TruncatedSeries([field(rand_fraction(rng)) for _ in range(order + 1)], field=field)


def rand_normalized(rng, order):
    return NormalizedSeries.from_upper([rand_fraction(rng) for _ in range(order - 1)])


def identity(order, field=Fraction):
    return TruncatedSeries([field(0), field(1)] + [field(0)] * (order - 1), field=field)


class TestConstruction:
    def test_order_and_coefficients(self):
        f = TruncatedSeries([1, 2, 3])
        assert f.order == 2
        assert f.coefficient(0) == 1
        assert f.coefficient(2) == 3
        with pytest.raises(IndexError):
            f.coefficient(3)
        with pytest.raises(IndexError):
            f.coefficient(-1)

    def test_field_coercion(self):
        f = TruncatedSeries([1, Fraction(1, 2)], field=QSqrt5)
        assert isinstance(f.coefficient(0), QSqrt5)

    def test_float_coefficients_rejected(self):
        # a float would bring its binary expansion into the exact series
        for coeffs, field in (
            ([0.5], Fraction),
            ([0, 1, 0.25], Fraction),
            ([Fraction(1, 2), 1.0], Fraction),
            ([0.5], QSqrt5),
            ([0, 0.5], ExactComplex),
        ):
            with pytest.raises(TypeError):
                TruncatedSeries(coeffs, field=field)

    @pytest.mark.parametrize("field", [int, float, str, complex])
    def test_field_outside_the_tower_rejected(self, field):
        # an int field would floor 1/2 to 0, a float field would let floats in
        with pytest.raises(TypeError):
            TruncatedSeries([0, 1, Fraction(1, 2)], field)

    def test_float_field_reaches_no_routine(self):
        with pytest.raises(TypeError):
            faber_inverse_coefficients(NormalizedSeries([0, 1, 0.5, 0.25], float))
        with pytest.raises(TypeError):
            TruncatedSeries([0, 1, 0.5], float).revert()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_truncated(self):
        f = TruncatedSeries([1, 2, 3, 4])
        assert f.truncated(1) == TruncatedSeries([1, 2])
        assert f.truncated(3) == f
        with pytest.raises(ValueError):
            f.truncated(4)

    def test_normalized_validation(self):
        g = NormalizedSeries.from_upper([Fraction(1, 2), Fraction(1, 3)])
        assert g.order == 3
        assert g.coefficient(0) == 0 and g.coefficient(1) == 1
        assert g.is_normalized
        with pytest.raises(ValueError):
            NormalizedSeries([1, 1, 0])
        with pytest.raises(ValueError):
            NormalizedSeries([0, 2, 0])
        assert NormalizedSeries.from_upper([]) == TruncatedSeries([0, 1])


class TestRingOps:
    def test_mul_examples(self):
        one_plus = TruncatedSeries([1, 1, 0])
        one_minus = TruncatedSeries([1, -1, 0])
        assert one_plus * one_minus == TruncatedSeries([1, 0, -1])
        z = TruncatedSeries([0, 1, 0, 0])
        assert z * z == TruncatedSeries([0, 0, 1, 0])

    def test_strict_order_mismatch(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 1]) + TruncatedSeries([1, 1, 1])
        with pytest.raises(ValueError):
            TruncatedSeries([1, 1]) * TruncatedSeries([1, 1, 1])

    def test_ring_axioms_randomized(self):
        rng = random.Random(201)
        for _ in range(60):
            f, g, h = (rand_series(rng, 6) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f - f == TruncatedSeries([0] * 7)

    def test_scalar_ops(self):
        f = TruncatedSeries([1, 2, 3])
        assert f.scaled(Fraction(1, 2)) == TruncatedSeries([Fraction(1, 2), 1, Fraction(3, 2)])
        assert f * Fraction(2) == TruncatedSeries([2, 4, 6])
        assert Fraction(2) * f == f * Fraction(2)

    def test_join_field(self):
        assert join_field(Fraction, QSqrt5) is QSqrt5
        assert join_field(QSqrt5, ExactComplex) is ExactComplex
        assert join_field(Fraction, Fraction) is Fraction
        f = TruncatedSeries([1, 1], field=Fraction)
        g = TruncatedSeries([QSqrt5(0, 1), 0], field=QSqrt5)
        assert (f * g).field is QSqrt5


class TestReciprocal:
    def test_geometric(self):
        f = TruncatedSeries([1, -1, 0, 0])
        assert f.reciprocal() == TruncatedSeries([1, 1, 1, 1])

    def test_round_trip_random(self):
        rng = random.Random(202)
        for _ in range(60):
            f = rand_series(rng, 7)
            if f.coefficient(0) == 0:
                continue
            one = TruncatedSeries([1] + [0] * 7)
            assert f * f.reciprocal() == one

    def test_zero_constant_rejected(self):
        with pytest.raises(ZeroDivisionError):
            TruncatedSeries([0, 1]).reciprocal()


class TestCompose:
    def test_identity_inner(self):
        rng = random.Random(203)
        f = rand_series(rng, 6)
        assert f.compose(identity(6)) == f

    def test_small_example(self):
        f = TruncatedSeries([0, 1, 1, 0])
        # (z + z^2) o (z + z^2) = z + 2z^2 + 2z^3 + z^4, truncated at order 3
        assert f.compose(f) == TruncatedSeries([0, 1, 2, 2])

    def test_inner_constant_must_vanish(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 1]).compose(TruncatedSeries([1, 1]))

    def test_associativity_randomized(self):
        rng = random.Random(204)
        for _ in range(20):
            f = rand_series(rng, 5)
            g = rand_series(rng, 5)
            h = rand_series(rng, 5)
            g = g - TruncatedSeries([g.coefficient(0)] + [0] * 5)
            h = h - TruncatedSeries([h.coefficient(0)] + [0] * 5)
            assert f.compose(g).compose(h) == f.compose(g.compose(h))

    def test_mul_compat(self):
        rng = random.Random(205)
        for _ in range(20):
            f, g = rand_series(rng, 5), rand_series(rng, 5)
            w = rand_series(rng, 5)
            w = w - TruncatedSeries([w.coefficient(0)] + [0] * 5)
            assert (f * g).compose(w) == f.compose(w) * g.compose(w)


def rand_field_value(rng, field):
    if field is Fraction:
        return rand_fraction(rng)
    if field is QSqrt5:
        return QSqrt5(rand_fraction(rng), rand_fraction(rng))
    return ExactComplex(QSqrt5(rand_fraction(rng), rand_fraction(rng)), rand_fraction(rng))


def ring_horner(outer, inner):
    """outer(inner) by Horner's rule on the field's own objects.

    The k-th partial sum c_k + inner*(c_{k+1} + ...) is kept to order
    N - k, the most the final order-N result can see.
    """
    field = join_field(outer.field, inner.field)
    n = outer.order
    c = [field(x) for x in outer.coeffs]
    w = [field(x) for x in inner.coeffs]
    acc = [c[n]]
    for k in range(n - 1, -1, -1):
        product = []
        for j in range(1, n - k + 1):
            total = field(0)
            for i in range(1, j + 1):
                total = total + w[i] * acc[j - i]
            product.append(total)
        acc = [c[k]] + product
    return TruncatedSeries(acc, field)


FIELDS = (Fraction, QSqrt5, ExactComplex)


class TestComposeAgainstRingHorner:
    @pytest.mark.parametrize("outer_field", FIELDS)
    @pytest.mark.parametrize("inner_field", FIELDS)
    def test_field_pairs(self, outer_field, inner_field):
        rng = random.Random(230 + 3 * FIELDS.index(outer_field) + FIELDS.index(inner_field))
        complex_pair = ExactComplex in (outer_field, inner_field)
        orders = (1, 2, 3, 5, 8, 12) if complex_pair else range(1, 21)
        for order in orders:
            outer = TruncatedSeries(
                [rand_field_value(rng, outer_field) for _ in range(order + 1)], outer_field
            )
            zero = TruncatedSeries([0] * (order + 1), inner_field)
            sparse = TruncatedSeries(
                [0] + [
                    rand_field_value(rng, inner_field) if rng.random() < 0.3 else 0
                    for _ in range(order)
                ],
                inner_field,
            )
            dense = TruncatedSeries(
                [0] + [rand_field_value(rng, inner_field) for _ in range(order)], inner_field
            )
            for inner in (zero, sparse, dense):
                result = outer.compose(inner)
                expected = ring_horner(outer, inner)
                assert result.field is expected.field
                assert result.coeffs == expected.coeffs
                assert all(type(c) is expected.field for c in result.coeffs)
                assert repr(result.coeffs) == repr(expected.coeffs)

    @pytest.mark.parametrize("order", [1, 7, 20])
    def test_complex_orders_to_20(self, order):
        # the pairing the witness check uses: a Q(sqrt 5) outer series and an
        # ExactComplex inner one, both with unrelated denominators
        rng = random.Random(240 + order)
        outer = TruncatedSeries([rand_field_value(rng, QSqrt5) for _ in range(order + 1)], QSqrt5)
        inner = TruncatedSeries(
            [0] + [
                rand_field_value(rng, ExactComplex) if rng.random() < 0.7 else 0
                for _ in range(order)
            ],
            ExactComplex,
        )
        result = outer.compose(inner)
        assert result.coeffs == ring_horner(outer, inner).coeffs
        assert result.field is ExactComplex

    def test_order_zero(self):
        for field in FIELDS:
            outer = TruncatedSeries([field(Fraction(3, 4))], field)
            result = outer.compose(TruncatedSeries([0], Fraction))
            assert result.coeffs == (field(Fraction(3, 4)),)
            assert type(result.coeffs[0]) is field


# a 200-digit denominator, and 19 distinct 30-digit ones
TOP_DENOMINATOR = 10**199 + 153
DISTINCT_DENOMINATORS = [10**29 + 2 * k + 1 for k in range(19)]


def ring_value(rng, field):
    """A small nonzero element of Z, Z[sqrt5] or Z[sqrt5, i]."""
    a = rng.choice((-3, -2, -1, 1, 2, 3))
    b, c, e = (rng.randint(-3, 3) for _ in range(3))
    if field is Fraction:
        return Fraction(a)
    if field is QSqrt5:
        return QSqrt5(a, b)
    return ExactComplex(QSqrt5(a, b), QSqrt5(c, e))


def half_value(rng, field):
    """A value over the denominator 2: a/2, or (a + b*sqrt5)/2 like tau, a and b odd."""
    a, b = 2 * rng.randint(-2, 2) + 1, 2 * rng.randint(-2, 2) + 1
    if field is Fraction:
        return Fraction(a, 2)
    tau_like = QSqrt5(Fraction(a, 2), Fraction(b, 2))
    if field is QSqrt5:
        return tau_like
    return ExactComplex(tau_like, QSqrt5(Fraction(b, 2), Fraction(a, 2)))


def rescaling_inputs(field, order):
    """Named lists a_2 .. a_order that give the rescaling z -> d*z different d.

    The two large-height lists stop at order 15: at order 28 the 19
    distinct denominators make d about 570 digits and G_28 about 15000,
    and one field takes seconds on either route (4.5 s for `revert` over
    Q(sqrt 5, i)).  The order-20 `revert` pins cover both lists over all
    three fields.
    """
    rng = random.Random(250 + order)
    count = order - 1
    ring = [ring_value(rng, field) for _ in range(count)]
    inputs = {
        "integer": ring,
        "half": [half_value(rng, field) for _ in range(count)],
    }
    if 2 <= order <= 15:
        inputs["top-200-digit"] = ring[:-1] + [ring[-1] * Fraction(1, TOP_DENOMINATOR)]
        inputs["distinct-30-digit"] = [
            c * Fraction(1, den) for c, den in zip(ring, DISTINCT_DENOMINATORS)
        ]
    if field is ExactComplex:
        inputs["imaginary"] = [
            ExactComplex(0, QSqrt5(rand_fraction(rng), rand_fraction(rng))) for _ in range(count)
        ]
    return inputs


class TestRevert:
    def test_geometric_example(self):
        f = NormalizedSeries.from_upper([Fraction(1), Fraction(1), Fraction(1)])
        g = f.revert()
        assert [g.coefficient(k) for k in range(5)] == [0, 1, -1, 1, -1]

    def test_identity_fixed_point(self):
        f = NormalizedSeries.from_upper([Fraction(0)] * 7)
        assert f.revert() == f

    def test_two_sided_inverse_randomized(self):
        rng = random.Random(206)
        ident = identity(9)
        for _ in range(25):
            f = rand_normalized(rng, 9)
            g = f.revert()
            assert f.compose(g) == ident
            assert g.compose(f) == ident
            assert g.revert() == TruncatedSeries(f.coeffs)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_faber_route_up_to_order_28(self, sparse):
        rng = random.Random(207 + sparse)
        for order in (2, 3, 5, 8, 12, 17, 22, 28):
            upper = [
                rand_fraction(rng) if not sparse or rng.random() < 0.2 else Fraction(0)
                for _ in range(order - 1)
            ]
            f = NormalizedSeries.from_upper(upper)
            assert f.revert() == faber_inverse_coefficients(f)

    def test_exact_tower_fields(self):
        rng = random.Random(209)
        ident = identity(7, ExactComplex)
        for field in (QSqrt5, ExactComplex):
            coeffs = [0, 1] + [
                field(QSqrt5(rand_fraction(rng), rand_fraction(rng))) for _ in range(6)
            ]
            if field is ExactComplex:
                coeffs[3] = ExactComplex(rand_fraction(rng), rand_fraction(rng))
            f = NormalizedSeries(coeffs, field)
            g = f.revert()
            assert g.field is field
            assert g == faber_inverse_coefficients(f)
            assert f.compose(g) == ident

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("order", [1, 2, 3, 7, 15, 28])
    def test_matches_faber_route_across_denominators(self, field, order):
        for name, upper in rescaling_inputs(field, order).items():
            f = NormalizedSeries.from_upper(upper, field)
            g = f.revert()
            assert g.field is field, name
            assert repr(g) == repr(faber_inverse_coefficients(f)), name

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            TruncatedSeries([0, 2, 1]).revert()
        with pytest.raises(ValueError):
            TruncatedSeries([1, 1, 1]).revert()


class TestDerivative:
    def test_example(self):
        f = TruncatedSeries([5, 1, Fraction(3, 2), 0])
        assert f.derivative() == TruncatedSeries([1, 3, 0])

    def test_order_drop_and_linearity(self):
        rng = random.Random(207)
        for _ in range(40):
            f, g = rand_series(rng, 6), rand_series(rng, 6)
            assert f.derivative().order == 5
            assert (f + g).derivative() == f.derivative() + g.derivative()

    def test_product_rule(self):
        rng = random.Random(208)
        for _ in range(40):
            f, g = rand_series(rng, 6), rand_series(rng, 6)
            lhs = (f * g).derivative()
            rhs = f.derivative() * g.truncated(5) + f.truncated(5) * g.derivative()
            assert lhs == rhs

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([3]).derivative()
