"""Partition-sum polynomials and powered-series coefficients, with series oracles."""

import random
from fractions import Fraction
from math import factorial

import pytest

from faberfib import (
    ExactComplex,
    NormalizedSeries,
    QSqrt5,
    TruncatedSeries,
    faber_inverse_coefficients,
    faber_polynomial,
    partial_bell,
)


def rand_fraction(rng, span=20):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_value(rng, field, span=20):
    if field is Fraction:
        return rand_fraction(rng, span)
    if field is QSqrt5:
        return QSqrt5(rand_fraction(rng, span), rand_fraction(rng, span))
    return ExactComplex(
        QSqrt5(rand_fraction(rng, span), rand_fraction(rng, span)), rand_fraction(rng, span)
    )


def generalized_binomial(p: int, m: int) -> int:
    """p*(p-1)*...*(p-m+1) / m! for any integer p."""
    num = 1
    for j in range(m):
        num *= p - j
    return num // factorial(m)


def partition_sum_faber(n: int, p: int, a):
    """[z^n] (a_1 + a_2 z + ...)^p with a_1 = 1, assembled from partition sums.

    The expansion (1 + u)^p = sum_m C(p, m) u^m with u = a_2 z + a_3 z^2 + ...
    gives [z^n] u^m as the partial Bell polynomial in u_i = a_{i+1}.
    """
    total = 0
    shifted = list(a[1 : n + 1])
    for m in range(1, n + 1):
        weight = generalized_binomial(p, m)
        if weight:
            total = total + weight * partial_bell(n, m, shifted)
    return total


def series_power(base: TruncatedSeries, m: int) -> TruncatedSeries:
    out = TruncatedSeries([1] + [0] * base.order)
    for _ in range(m):
        out = out * base
    return out


class TestPartialBell:
    def test_edge_identities(self):
        rng = random.Random(301)
        for n in range(1, 13):
            u = [rand_fraction(rng) for _ in range(n)]
            assert partial_bell(n, 1, u) == u[n - 1]
            assert partial_bell(n, n, u) == u[0] ** n

    def test_small_closed_forms(self):
        a2, a3 = Fraction(2, 7), Fraction(-5, 3)
        assert partial_bell(3, 2, [1, a2, a3]) == 2 * a2
        assert partial_bell(4, 2, [1, a2, a3, 0]) == 2 * a3 + a2 * a2
        assert partial_bell(2, 2, [1, a2]) == 1

    def test_against_series_power(self):
        # coefficient of z^n in (u_1 z + ... + u_n z^n)^m, computed by plain
        # series multiplication, must reproduce the partition sum
        rng = random.Random(302)
        for n in range(1, 8):
            u = [rand_fraction(rng) for _ in range(n)]
            base = TruncatedSeries([Fraction(0)] + u)
            for m in range(1, n + 1):
                assert partial_bell(n, m, u) == series_power(base, m).coefficient(n)

    def test_homogeneity(self):
        rng = random.Random(303)
        for _ in range(30):
            n = rng.randint(2, 8)
            m = rng.randint(1, n)
            u = [rand_fraction(rng) for _ in range(n)]
            lam = rand_fraction(rng)
            scaled = [lam ** (i + 1) * u[i] for i in range(n)]
            assert partial_bell(n, m, scaled) == lam**n * partial_bell(n, m, u)

    def test_integer_inputs_stay_integer(self):
        value = partial_bell(6, 3, [1, 1, 1, 1, 1, 1])
        assert isinstance(value, int)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            partial_bell(0, 1, [1])
        with pytest.raises(ValueError):
            partial_bell(3, 0, [1, 1, 1])
        with pytest.raises(ValueError):
            partial_bell(3, 4, [1, 1, 1])
        with pytest.raises(ValueError):
            partial_bell(4, 2, [1])  # too few inputs

    def test_float_inputs_rejected(self):
        with pytest.raises(TypeError):
            partial_bell(2, 1, [0.5, 0.25])
        with pytest.raises(TypeError):
            partial_bell(2, 2, [Fraction(1, 2), 0.25])
        # entries past u_n are ignored, so they are not checked
        assert partial_bell(1, 1, [Fraction(1, 2), 0.25]) == Fraction(1, 2)


class TestFaberPolynomial:
    def test_low_order_closed_forms(self):
        rng = random.Random(304)
        for _ in range(40):
            a2, a3, a4 = (rand_fraction(rng) for _ in range(3))
            a = [1, a2, a3, a4, 0]
            assert faber_polynomial(1, -2, a) == -2 * a2
            assert faber_polynomial(2, -3, a) == 3 * (2 * a2**2 - a3)
            assert faber_polynomial(3, -4, a) == -4 * (5 * a2**3 - 5 * a2 * a3 + a4)

    def test_against_series_power(self):
        # coefficient of z^n in (1 + a_2 z + ...)^p for integer p of both signs
        rng = random.Random(305)
        for _ in range(40):
            n = rng.randint(1, 7)
            a = [Fraction(1)] + [rand_fraction(rng) for _ in range(n)]
            unit = TruncatedSeries(a)
            p = rng.randint(-6, 6)
            base = unit if p >= 0 else unit.reciprocal()
            expected = series_power(base, abs(p)).coefficient(n)
            assert faber_polynomial(n, p, a) == expected

    def test_zero_exponent(self):
        assert faber_polynomial(3, 0, [1, 2, 3, 4]) == 0

    def test_leading_one_required(self):
        with pytest.raises(ValueError):
            faber_polynomial(2, -3, [2, 1, 1])
        with pytest.raises(ValueError):
            faber_polynomial(2, -3, [1, 1])  # needs a_1..a_3
        with pytest.raises(ValueError):
            faber_polynomial(0, -3, [1])

    def test_inexact_exponent_rejected(self):
        with pytest.raises(TypeError):
            faber_polynomial(2, 0.5, [1, Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(TypeError):
            faber_polynomial(2, Fraction(1, 2), [1, Fraction(1, 2), Fraction(1, 3)])


class TestMillerAgainstPartitionSums:
    """Miller's recurrence against the partition-sum assembly it replaced."""

    @pytest.mark.parametrize("field", [Fraction, QSqrt5, ExactComplex])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_all_exponents_low_orders(self, field, sparse):
        rng = random.Random(310 + 2 * [Fraction, QSqrt5, ExactComplex].index(field) + sparse)
        for p in range(-15, 16):
            for n in (1, 2, 3, rng.randint(4, 8), 12):
                a = [field(1)] + [
                    rand_value(rng, field) if not sparse or rng.random() < 0.3 else field(0)
                    for _ in range(n)
                ]
                value = faber_polynomial(n, p, a)
                expected = partition_sum_faber(n, p, a)
                assert value == expected, (n, p)
                assert type(value) is type(expected), (n, p)
                assert repr(value) == repr(expected)

    def test_mixed_input_types_follow_the_oracle(self):
        # the result has the type the used inputs share, never float
        rng = random.Random(316)
        kinds = [int, Fraction, QSqrt5, ExactComplex]
        for _ in range(80):
            n = rng.randint(1, 7)
            p = rng.randint(-6, 6)
            a = [1]
            for _ in range(n):
                kind = rng.choice(kinds)
                a.append(rng.randint(-4, 4) if kind is int else kind(rand_fraction(rng)))
            value = faber_polynomial(n, p, a)
            expected = partition_sum_faber(n, p, a)
            assert value == expected
            assert type(value) is type(expected), (n, p, a)

    def test_integer_inputs_give_integers(self):
        value = faber_polynomial(3, -4, [1, 2, 3, 5])
        assert value == -60
        assert type(value) is int
        rng = random.Random(317)
        for p in range(-15, 16):
            for n in range(1, 13):
                a = [1] + [rng.randint(-3, 3) for _ in range(n)]
                value = faber_polynomial(n, p, a)
                assert type(value) is int, (n, p)
                assert value == partition_sum_faber(n, p, a)

    def test_no_float_from_sparse_inputs(self):
        # every product vanishes, so the division by k sees an exact zero
        for p in (-3, 2, 5):
            assert type(faber_polynomial(4, p, [1, 0, 0, 0, 0])) is int
            value = faber_polynomial(4, p, [Fraction(1)] + [Fraction(0)] * 4)
            assert value == 0 and type(value) is Fraction
            value = faber_polynomial(3, p, [QSqrt5(1)] + [QSqrt5(0)] * 3)
            assert value == 0 and type(value) is QSqrt5

    def test_trivial_exponents(self):
        a = [Fraction(1), Fraction(2, 3), Fraction(-1, 5), Fraction(7, 2)]
        assert type(faber_polynomial(3, 0, a)) is int
        assert faber_polynomial(3, 0, a) == 0
        assert faber_polynomial(3, 1, a) == Fraction(7, 2)
        assert type(faber_polynomial(2, 1, [1, ExactComplex(2), 3])) is int

    def test_float_inputs_rejected(self):
        with pytest.raises(TypeError):
            faber_polynomial(2, -3, [1, 0.5, 1])


class TestInverseCoefficients:
    def test_low_order_formulas(self):
        rng = random.Random(306)
        for _ in range(60):
            a2, a3, a4 = (rand_fraction(rng) for _ in range(3))
            f = NormalizedSeries.from_upper([a2, a3, a4])
            g = faber_inverse_coefficients(f)
            assert g.coefficient(2) == -a2
            assert g.coefficient(3) == 2 * a2**2 - a3
            assert g.coefficient(4) == -(5 * a2**3 - 5 * a2 * a3 + a4)

    def test_matches_reversion(self):
        rng = random.Random(307)
        for _ in range(10):
            f = NormalizedSeries.from_upper([rand_fraction(rng) for _ in range(7)])
            assert faber_inverse_coefficients(f) == f.revert()

    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_reversion_up_to_order_50(self, sparse):
        rng = random.Random(318 + sparse)
        for order in (2, 3, 5, 9, 16, 24, 33, 50):
            upper = [
                rand_fraction(rng, 9) if not sparse or rng.random() < 0.2 else Fraction(0)
                for _ in range(order - 1)
            ]
            f = NormalizedSeries.from_upper(upper)
            assert faber_inverse_coefficients(f) == f.revert()

    def test_geometric(self):
        f = NormalizedSeries.from_upper([Fraction(1)] * 9)
        g = faber_inverse_coefficients(f)
        assert [g.coefficient(k) for k in range(11)] == [
            0, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1,
        ]

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            faber_inverse_coefficients(TruncatedSeries([0, 2, 1]))


class TestGapRelation:
    def test_matches_full_inverse_on_gap_series(self):
        rng = random.Random(308)
        for n in range(3, 9):
            a_n = rand_fraction(rng)
            coeffs = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 2) + [a_n]
            f = NormalizedSeries(coeffs)
            g = faber_inverse_coefficients(f)
            # f = z + a_n z^n has inverse z - a_n z^n + O(z^(2n-1))
            assert g.coefficient(n) == -a_n
            for m in range(2, n):
                assert g.coefficient(m) == 0
