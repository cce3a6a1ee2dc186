"""Fractional-derivative coefficient action and the two-sided membership test."""

import random
from fractions import Fraction

import pytest

from faberfib import (
    CONSISTENT,
    TAU,
    VIOLATED,
    ClassParams,
    ExactComplex,
    NormalizedSeries,
    OperatorParams,
    TruncatedSeries,
    apply_operator,
    membership_witness,
    operator_multiplier,
    rising_ratio,
    subordination_lhs,
)


def rand_fraction(rng, span=20):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_positive(rng, span=8):
    return Fraction(rng.randint(1, span), rng.randint(1, span))


class TestRisingRatio:
    def test_examples(self):
        assert rising_ratio(Fraction(1, 2), Fraction(1, 4), 2) == Fraction(12, 5)
        assert rising_ratio(Fraction(3), Fraction(3), 17) == 1
        assert rising_ratio(Fraction(2), Fraction(1), 3) == 4  # (2*3*4)/(1*2*3)

    def test_empty_product(self):
        assert rising_ratio(Fraction(7, 2), Fraction(1, 9), 0) == 1

    def test_multiplicative_splice(self):
        rng = random.Random(501)
        for _ in range(30):
            x, y = rand_positive(rng), rand_positive(rng)
            n, m = rng.randint(0, 6), rng.randint(0, 6)
            assert rising_ratio(x, y, n + m) == rising_ratio(x, y, n) * rising_ratio(
                x + n, y + n, m
            )

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            rising_ratio(Fraction(1), Fraction(1), -1)

    def test_float_arguments_rejected(self):
        # a float would bring its binary expansion into the exact quotient
        with pytest.raises(TypeError):
            rising_ratio(0.5, 0.25, 2)
        with pytest.raises(TypeError):
            rising_ratio(Fraction(1, 2), 0.25, 2)

    def test_matches_running_fraction_product(self):
        # negative and integer arguments reach a zero factor, or a zero divisor
        rng = random.Random(502)
        for _ in range(300):
            x, y, n = rand_fraction(rng, 6), rand_fraction(rng, 6), rng.randint(0, 12)
            try:
                expected = Fraction(1)
                for k in range(n):
                    expected *= (x + k) / (y + k)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    rising_ratio(x, y, n)
                continue
            assert rising_ratio(x, y, n) == expected


class TestOperatorParams:
    def test_window_flag(self):
        assert OperatorParams(Fraction(1, 2), Fraction(1, 4)).in_definition_window
        assert not OperatorParams(Fraction(1), Fraction(1)).in_definition_window  # mu = rho
        assert not OperatorParams(Fraction(1, 4), Fraction(1, 2)).in_definition_window
        assert not OperatorParams(Fraction(3), Fraction(2)).in_definition_window

    def test_positive_required(self):
        with pytest.raises(ValueError):
            OperatorParams(Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            OperatorParams(Fraction(1), Fraction(-1, 2))

    def test_coercion(self):
        op = OperatorParams(1, Fraction(1, 2))
        assert op.mu == Fraction(1)
        assert isinstance(op.mu, Fraction)

    def test_float_orders_rejected(self):
        with pytest.raises(TypeError):
            OperatorParams(0.1, Fraction(1, 4))
        with pytest.raises(TypeError):
            OperatorParams(Fraction(1, 2), 0.25)


class TestOperatorAction:
    def test_multiplier_leading_term(self):
        rng = random.Random(502)
        for _ in range(30):
            op = OperatorParams(rand_positive(rng), rand_positive(rng))
            assert operator_multiplier(1, op) == op.mu / op.rho

    def test_equal_orders_identity(self):
        rng = random.Random(503)
        op = OperatorParams(Fraction(3, 7), Fraction(3, 7))
        f = TruncatedSeries([Fraction(0)] + [rand_fraction(rng) for _ in range(20)])
        assert apply_operator(f, op) == f

    def test_window_example(self):
        op = OperatorParams(Fraction(1, 2), Fraction(1, 4))
        f = TruncatedSeries([0, 1, 1, 0])
        image = apply_operator(f, op)
        assert image.coefficient(1) == Fraction(2)
        assert image.coefficient(2) == Fraction(12, 5)
        assert image.coefficient(3) == 0

    def test_constant_term_guard(self):
        op = OperatorParams(Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(ValueError):
            apply_operator(TruncatedSeries([1, 1]), op)
        with pytest.raises(ValueError):
            operator_multiplier(0, op)


class TestClassParams:
    def test_gamma_nonzero(self):
        with pytest.raises(ValueError):
            ClassParams(0, OperatorParams(Fraction(1), Fraction(1)))

    def test_gamma_coerced(self):
        params = ClassParams(Fraction(2, 3), OperatorParams(Fraction(1), Fraction(1)))
        assert params.gamma == ExactComplex(Fraction(2, 3))


def make_params(gamma, mu=Fraction(1), rho=Fraction(1)):
    return ClassParams(gamma, OperatorParams(mu, rho))


class TestSubordinationLhs:
    def test_constant_term_and_order(self):
        f = NormalizedSeries.from_upper([Fraction(1, 3), Fraction(1, 5)])
        lhs = subordination_lhs(f, make_params(Fraction(1, 2)))
        assert lhs.order == f.order - 1
        assert lhs.coefficient(0) == ExactComplex(1)

    def test_leading_coefficient_formula(self):
        rng = random.Random(504)
        for _ in range(30):
            a2 = rand_fraction(rng)
            gamma = ExactComplex(rand_fraction(rng), rand_fraction(rng))
            if not gamma:
                continue
            mu, rho = rand_positive(rng), rand_positive(rng)
            f = NormalizedSeries.from_upper([a2, Fraction(0)])
            lhs = subordination_lhs(f, make_params(gamma, mu, rho))
            expected = ExactComplex(2 * (mu + 1) / (rho + 1)) * ExactComplex(a2) / gamma
            assert lhs.coefficient(1) == expected

    def test_affine_in_upper_coefficients(self):
        rng = random.Random(505)
        params = make_params(ExactComplex(1, 1), Fraction(2, 3), Fraction(1, 3))
        one = TruncatedSeries([ExactComplex(1)] + [ExactComplex(0)] * 4, ExactComplex)
        for _ in range(15):
            fu = [rand_fraction(rng) for _ in range(4)]
            gu = [rand_fraction(rng) for _ in range(4)]
            su = [a + b for a, b in zip(fu, gu)]
            lf = subordination_lhs(NormalizedSeries.from_upper(fu), params)
            lg = subordination_lhs(NormalizedSeries.from_upper(gu), params)
            ls = subordination_lhs(NormalizedSeries.from_upper(su), params)
            assert ls - one == (lf - one) + (lg - one)

    def test_specialization_chain(self):
        rng = random.Random(506)
        upper = [rand_fraction(rng) for _ in range(5)]
        f = NormalizedSeries.from_upper(upper)
        gamma = Fraction(3, 7)
        # at mu = rho = 1 the series is 1 + (f' - 1)/gamma
        lhs = subordination_lhs(f, make_params(gamma))
        fprime = f.derivative()
        for k in range(1, lhs.order + 1):
            assert lhs.coefficient(k) == ExactComplex(fprime.coefficient(k) / gamma)
        # and gamma = 1 gives f' itself
        lhs_unit = subordination_lhs(f, make_params(Fraction(1)))
        assert lhs_unit == TruncatedSeries(
            [ExactComplex(c) for c in fprime.coeffs], ExactComplex
        )

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            subordination_lhs(TruncatedSeries([0, 2, 0]), make_params(Fraction(1)))


class TestMembershipWitness:
    def test_identity_map_consistent(self):
        f = NormalizedSeries.from_upper([Fraction(0), Fraction(0)])
        report = membership_witness(f, make_params(Fraction(1)))
        assert report.verdict == f"{CONSISTENT}-3"
        assert report.consistent
        assert report.map_candidate.feasible
        assert report.inverse_candidate.feasible
        assert all(c == ExactComplex(0) for c in report.map_candidate.coeffs)

    def test_large_coefficient_violates(self):
        f = NormalizedSeries.from_upper([Fraction(10), Fraction(0)])
        report = membership_witness(f, make_params(Fraction(1)))
        assert report.verdict == VIOLATED
        assert not report.consistent
        assert not report.map_candidate.c1_within_unit

    def test_gap_series_antisymmetry(self):
        # for f = z + a_n z^n the two candidates carry opposite witnesses
        rng = random.Random(507)
        for n in range(3, 9):
            a_n = rand_fraction(rng)
            if not a_n:
                a_n = Fraction(1, 9)
            coeffs = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 2) + [a_n]
            f = NormalizedSeries(coeffs)
            gamma = rand_positive(rng) + 3  # keep candidates inside the disc
            report = membership_witness(f, make_params(gamma, Fraction(1, 2), Fraction(1, 4)))
            forward = report.map_candidate.coeffs
            backward = report.inverse_candidate.coeffs
            assert forward[n - 2] == -backward[n - 2]
            for k in range(n - 2):
                assert forward[k] == ExactComplex(0)
                assert backward[k] == ExactComplex(0)
            expected = (
                ExactComplex(rising_ratio(Fraction(3, 2), Fraction(5, 4), n - 1))
                * n
                * ExactComplex(a_n)
                / ExactComplex(gamma)
                / ExactComplex(TAU)
            )
            assert forward[n - 2] == expected

    def test_truncation_order_control(self):
        f = NormalizedSeries.from_upper([Fraction(1, 8), Fraction(1, 9), Fraction(1, 10)])
        report = membership_witness(f, make_params(Fraction(2)), order=3)
        assert report.order == 3
        assert len(report.map_candidate.coeffs) == 2

    def test_order_guards(self):
        f = NormalizedSeries.from_upper([Fraction(1, 8), Fraction(1, 9)])
        with pytest.raises(ValueError):
            membership_witness(f, make_params(Fraction(1)), order=2)
        with pytest.raises(ValueError):
            membership_witness(f, make_params(Fraction(1)), order=4)
        with pytest.raises(ValueError):
            membership_witness(TruncatedSeries([0, 2, 0, 0]), make_params(Fraction(1)))
