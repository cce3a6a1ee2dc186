"""Golden-ratio generator: coefficients three ways, evaluation, formal preimages."""

import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import faberfib
from faberfib import (
    ABS_TAU,
    TAU,
    UNIVALENCE_RADIUS,
    ClassParams,
    ExactComplex,
    NormalizedSeries,
    OperatorParams,
    QSqrt5,
    SchwarzCandidate,
    TruncatedSeries,
    fibonacci,
    golden_coefficient,
    golden_coefficient_fibonacci,
    golden_coefficients,
    golden_series,
    golden_value,
    golden_value_exact,
    partial_bell,
    solve_schwarz,
    subordination_lhs,
)

TAU_SQ = TAU * TAU


def rand_fraction(rng, span=20):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


class TestFibonacci:
    def test_first_values(self):
        assert [fibonacci(k) for k in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_recurrence(self):
        for n in range(2, 40):
            assert fibonacci(n) == fibonacci(n - 1) + fibonacci(n - 2)

    def test_closed_form(self):
        phi = (1 + math.sqrt(5)) / 2
        for n in range(31):
            assert fibonacci(n) == round(phi**n / math.sqrt(5))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fibonacci(-1)


class TestGoldenCoefficients:
    def test_first_four(self):
        assert golden_coefficient(1) == TAU
        assert golden_coefficient(2) == 3 * TAU_SQ
        assert golden_coefficient(3) == 4 * TAU**3
        assert golden_coefficient(4) == 7 * TAU**4

    def test_recursion_matches_fibonacci_form(self):
        for n in range(1, 51):
            assert golden_coefficient(n) == golden_coefficient_fibonacci(n)

    def test_table_in_one_pass(self):
        table = golden_coefficients(50)
        assert table == [golden_coefficient_fibonacci(n) for n in range(1, 51)]
        assert golden_coefficients(1) == [TAU]
        assert golden_coefficients(2) == [TAU, 3 * TAU_SQ]
        with pytest.raises(ValueError):
            golden_coefficients(0)

    def test_recursion_matches_series_division(self):
        series = golden_series(50)
        assert series.coefficient(0) == QSqrt5(1)
        for n in range(1, 51):
            assert series.coefficient(n) == golden_coefficient(n)

    def test_weight_growth(self):
        # the integer weight against tau^n is F_{n-3}+F_{n-2}+F_{n-1}+F_n for n >= 3
        for n, weight in ((3, 4), (4, 7), (5, 11), (6, 18)):
            assert golden_coefficient(n) == weight * TAU**n

    def test_second_dominates_first(self):
        c1, c2 = golden_coefficient(1), golden_coefficient(2)
        assert (c2 * c2 - c1 * c1).sign() == 1  # |c2| > |c1| exactly

    def test_defining_relation(self):
        n = 12
        series = golden_series(n)
        den = TruncatedSeries(
            [QSqrt5(1), -TAU, -TAU_SQ] + [QSqrt5(0)] * (n - 2), QSqrt5
        )
        num = TruncatedSeries(
            [QSqrt5(1), QSqrt5(0), TAU_SQ] + [QSqrt5(0)] * (n - 2), QSqrt5
        )
        assert den * series == num

    def test_index_errors(self):
        for bad in (0, -3):
            with pytest.raises(ValueError):
                golden_coefficient(bad)
            with pytest.raises(ValueError):
                golden_coefficient_fibonacci(bad)
        with pytest.raises(ValueError):
            golden_series(0)


class TestExactEvaluation:
    def test_center_and_half_pole_reflection(self):
        assert golden_value_exact(0) == QSqrt5(1)
        # -1/(2 tau) = (1+sqrt5)/4; the generator takes the value 1 there too
        mirror = QSqrt5(Fraction(1, 4), Fraction(1, 4))
        assert mirror == -1 / (2 * TAU)
        assert golden_value_exact(mirror) == QSqrt5(1)

    def test_rational_point(self):
        value = golden_value_exact(Fraction(1, 10))
        num = 1 + TAU_SQ * Fraction(1, 100)
        den = 1 - TAU * Fraction(1, 10) - TAU_SQ * Fraction(1, 100)
        assert value == num / den

    def test_complex_point(self):
        z = ExactComplex(Fraction(1, 5), Fraction(1, 7))
        value = golden_value_exact(z)
        assert value * (1 - TAU * z - TAU_SQ * z * z) == 1 + TAU_SQ * z * z

    def test_poles(self):
        with pytest.raises(ZeroDivisionError):
            golden_value_exact(-1)
        with pytest.raises(ZeroDivisionError):
            golden_value_exact(QSqrt5(Fraction(3, 2), Fraction(1, 2)))  # 1/tau^2

    def test_type_guard(self):
        with pytest.raises(TypeError):
            golden_value_exact(0.5)


class TestNumericEvaluation:
    def test_matches_exact_route(self):
        rng = random.Random(401)
        for _ in range(25):
            z = ExactComplex(rand_fraction(rng, 5) / 3, rand_fraction(rng, 5) / 3)
            if abs(complex(z)) > 0.3:
                continue
            exact = golden_value_exact(z)
            numeric = golden_value(complex(z), precision=128)
            assert abs(numeric - complex(ExactComplex(exact))) < 1e-12

    def test_boundary_modulus(self):
        # at z = e^{i arccos(1/4)} the generator has modulus sqrt(5)/5
        z = cmath.exp(1j * math.acos(0.25))
        assert abs(abs(golden_value(z, precision=128)) - math.sqrt(5) / 5) < 1e-12

    def test_near_pole_refused(self):
        with pytest.raises(ValueError):
            golden_value(-1.0)
        # refusal threshold scales with the working precision
        z = -1.0 + 1e-12
        with pytest.raises(ValueError):
            golden_value(z, precision=53)
        value = golden_value(z, precision=128)
        assert abs(value) > 1e9

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            golden_value(0.1, precision=52)

    def test_fraction_input(self):
        value = golden_value(Fraction(1, 10), precision=128)
        exact = golden_value_exact(Fraction(1, 10))
        assert abs(value - complex(ExactComplex(exact))) < 1e-15

    def test_injective_on_sampled_disc(self):
        # pairwise-distinct values on a grid inside the univalence radius
        radius = float(UNIVALENCE_RADIUS) - 1e-3
        points = []
        steps = 23
        for i in range(steps):
            for j in range(steps):
                z = complex(-radius + 2 * radius * i / (steps - 1),
                            -radius + 2 * radius * j / (steps - 1))
                if abs(z) <= radius:
                    points.append(z)
        values = [golden_value(z, precision=128) for z in points]
        assert len(points) > 350
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                assert abs(a - b) > 1e-9


# run in a fresh interpreter: mpmath stays unloaded until numeric evaluation
LAZY_MPMATH_SCRIPT = """
import contextlib, io, sys
import faberfib, faberfib.cli
assert "mpmath" not in sys.modules, "import loaded mpmath"
with contextlib.redirect_stdout(io.StringIO()):
    assert faberfib.cli.main(["fib", "--count", "5"]) == 0
    assert faberfib.cli.main(["ptilde-eval", "--z", "1/2 + i"]) == 0
    assert faberfib.cli.main(["bound", "--theorem", "2", "--gamma", "2+i", "--mu", "1", "--rho", "1"]) == 0
assert "mpmath" not in sys.modules, "an exact command loaded mpmath"
faberfib.golden_value(0.1)
assert "mpmath" in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert faberfib.cli.main(["ptilde-eval", "--z", "0.1,0.2"]) == 0
assert '"mode": "numeric"' in out.getvalue()
"""


class TestLazyMpmath:
    def test_only_numeric_evaluation_loads_mpmath(self):
        package_root = str(Path(faberfib.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", LAZY_MPMATH_SCRIPT],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr


class TestConstants:
    def test_tau_value(self):
        assert TAU == QSqrt5(Fraction(1, 2), Fraction(-1, 2))
        assert ABS_TAU == -TAU
        assert ABS_TAU.sign() == 1

    def test_univalence_radius_positive(self):
        assert UNIVALENCE_RADIUS == QSqrt5(Fraction(3, 2), Fraction(-1, 2))
        assert UNIVALENCE_RADIUS.sign() == 1
        assert abs(float(UNIVALENCE_RADIUS) - 0.3819660112501051) < 1e-15

    def test_golden_section_identity(self):
        assert 1 / ABS_TAU - ABS_TAU / (1 - ABS_TAU) == QSqrt5(0)


def compose_with_generator(inner_coeffs):
    order = len(inner_coeffs)
    inner = TruncatedSeries([Fraction(0)] + list(inner_coeffs))
    return golden_series(order).compose(inner)


def partition_sum_schwarz(subordinate):
    """The Schwarz solve as a partition sum, independent of the quadratic relation.

    The order-k coefficient of generator(w) is t*c_k plus
    sum_{m=2}^{k} golden_coefficient(m) * partial_bell(k, m, c), and the
    partition sums never reach the unknown c_k.
    """
    tau = ExactComplex(TAU)
    coeffs = []
    for k in range(1, subordinate.order + 1):
        known = coeffs + [ExactComplex(0)]
        acc = ExactComplex(0)
        for m in range(2, k + 1):
            acc = acc + golden_coefficient(m) * partial_bell(k, m, known)
        coeffs.append((ExactComplex(subordinate.coeffs[k]) - acc) / tau)
    c1_within, c1_boundary, c2_within, c2_boundary = True, False, True, False
    if coeffs:
        slack = 1 - coeffs[0].abs_squared()
        c1_within, c1_boundary = slack.sign() >= 0, slack.sign() == 0
    if len(coeffs) >= 2:
        # |c_2| <= 1 - |c_1|**2 only makes sense once |c_1| <= 1 holds
        gap = slack * slack - coeffs[1].abs_squared()
        c2_within = c1_within and gap.sign() >= 0
        c2_boundary = c1_within and gap.sign() == 0
    return SchwarzCandidate(
        tuple(coeffs), c1_within, c2_within, c1_boundary, c2_boundary
    )


def closed_form_schwarz(subordinate):
    """w = (sqrt(5 P^2 - 4) - P) / (2 tau (P + 1)), sharing no recurrence with the solve.

    It is the root with w(0) = 0 of tau^2 (P + 1) w^2 + tau P w + 1 - P = 0.
    The series square root r of d = 5 P^2 - 4 (d_0 = 1) runs on
    2 r_k = d_k - sum_{j=1}^{k-1} r_j r_{k-j}; then one reciprocal and two
    products.
    """
    n = subordinate.order
    p = TruncatedSeries(subordinate.coeffs, ExactComplex)
    d = (p * p).scaled(5).coeffs
    r = [ExactComplex(1)]
    for k in range(1, n + 1):
        acc = d[k]
        for j in range(1, k):
            acc = acc - r[j] * r[k - j]
        r.append(acc / 2)
    one = TruncatedSeries([1] + [0] * n, ExactComplex)
    denominator = (p + one).scaled(2 * ExactComplex(TAU))
    return (TruncatedSeries(r, ExactComplex) - p) * denominator.reciprocal()


def rand_exact_complex(rng):
    return ExactComplex(
        QSqrt5(rand_fraction(rng, 9), rand_fraction(rng, 9)),
        QSqrt5(rand_fraction(rng, 9), rand_fraction(rng, 9)),
    )


class TestSolveSchwarz:
    def test_matches_partition_sum_route_on_class_series(self):
        rng = random.Random(403)
        scales = (Fraction(1, 100), Fraction(1, 10), Fraction(1))
        for order in range(1, 13):
            scale = scales[order % 3]
            h = NormalizedSeries.from_upper([rand_fraction(rng) * scale for _ in range(order)])
            gamma = rand_exact_complex(rng) or ExactComplex(1)
            op = OperatorParams(Fraction(rng.randint(1, 8), 4), Fraction(rng.randint(1, 8), 4))
            series = subordination_lhs(h, ClassParams(gamma, op))
            assert series.order == order
            assert solve_schwarz(series) == partition_sum_schwarz(series)

    def test_matches_partition_sum_route_on_sparse_series(self):
        rng = random.Random(404)
        for order in range(1, 13):
            coeffs = [ExactComplex(1)] + [
                rand_exact_complex(rng) / 7 if rng.random() < 0.4 else ExactComplex(0)
                for _ in range(order)
            ]
            series = TruncatedSeries(coeffs, ExactComplex)
            assert solve_schwarz(series) == partition_sum_schwarz(series)

    def test_matches_partition_sum_route_on_boundary_cases(self):
        cases = [
            golden_series(5),
            TruncatedSeries([Fraction(1), 0, 0, 0]),
            compose_with_generator([Fraction(2), 0, 0]),
            compose_with_generator([Fraction(1, 2), Fraction(3, 4), 0]),
            compose_with_generator([Fraction(1, 2), Fraction(7, 8), 0]),
            compose_with_generator([Fraction(1, 3)]),
            compose_with_generator([Fraction(0), Fraction(1), Fraction(-1, 2)]),
        ]
        for series in cases:
            assert solve_schwarz(series) == partition_sum_schwarz(series)

    def test_matches_closed_form_to_order_50(self):
        rng = random.Random(405)
        for order, sparse in ((12, True), (25, True), (50, False)):
            coeffs = [ExactComplex(1)]
            for _ in range(order):
                if sparse:
                    coeffs.append(rand_exact_complex(rng) / 5 if rng.random() < 0.5 else ExactComplex(0))
                else:
                    coeffs.append(ExactComplex(rand_fraction(rng, 9), rand_fraction(rng, 9)) / 3)
            series = TruncatedSeries(coeffs, ExactComplex)
            w = closed_form_schwarz(series)
            assert w.coeffs[0] == 0
            assert solve_schwarz(series).coeffs == w.coeffs[1:]

    def test_identity_preimage(self):
        candidate = solve_schwarz(golden_series(5))
        assert candidate.coeffs == tuple(
            ExactComplex(c) for c in (1, 0, 0, 0, 0)
        )
        assert candidate.c1_within_unit and candidate.c1_on_boundary
        assert candidate.c2_within_margin and candidate.c2_on_boundary
        assert candidate.feasible

    def test_constant_one_maps_to_zero(self):
        flat = TruncatedSeries([Fraction(1), 0, 0, 0])
        candidate = solve_schwarz(flat)
        assert all(c == ExactComplex(0) for c in candidate.coeffs)
        assert candidate.feasible
        assert not candidate.c1_on_boundary

    def test_round_trip_random(self):
        rng = random.Random(402)
        for _ in range(30):
            chosen = [rand_fraction(rng, 6) / 13 for _ in range(6)]
            recovered = solve_schwarz(compose_with_generator(chosen))
            assert recovered.coeffs == tuple(ExactComplex(c) for c in chosen)

    def test_complex_round_trip(self):
        chosen = [
            ExactComplex(Fraction(1, 3), Fraction(1, 4)),
            ExactComplex(0, Fraction(-2, 5)),
            ExactComplex(Fraction(1, 2)),
        ]
        inner = TruncatedSeries([ExactComplex(0)] + chosen, ExactComplex)
        recovered = solve_schwarz(golden_series(3).compose(inner))
        assert recovered.coeffs == tuple(chosen)

    def test_flags_reject_large_first_coefficient(self):
        candidate = solve_schwarz(compose_with_generator([Fraction(2), 0, 0]))
        assert not candidate.c1_within_unit
        assert not candidate.feasible

    def test_second_margin_boundary(self):
        candidate = solve_schwarz(
            compose_with_generator([Fraction(1, 2), Fraction(3, 4), 0])
        )
        assert candidate.c1_within_unit and not candidate.c1_on_boundary
        assert candidate.c2_within_margin and candidate.c2_on_boundary

    def test_second_margin_violation(self):
        candidate = solve_schwarz(
            compose_with_generator([Fraction(1, 2), Fraction(7, 8), 0])
        )
        assert candidate.c1_within_unit
        assert not candidate.c2_within_margin

    def test_single_coefficient_vacuous_margin(self):
        candidate = solve_schwarz(compose_with_generator([Fraction(1, 3)]))
        assert candidate.c2_within_margin  # untestable, reported as passing

    def test_constant_term_guard(self):
        with pytest.raises(ValueError):
            solve_schwarz(TruncatedSeries([Fraction(2), 1, 0]))
