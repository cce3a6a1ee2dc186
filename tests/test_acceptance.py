"""Acceptance gate: the binding end-to-end checks, one reported line each.

Each test prints a single PASS/FAIL line through the capture escape
hatch so the verdicts stay visible in normal runs.  Criterion 9 checks
Theorem 1's sharpness at n = 3 against the order-3 membership witness.
"""

import cmath
import math
import random
import time
from fractions import Fraction

from faberfib import (
    ABS_TAU,
    TAU,
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
    golden_coefficient,
    golden_coefficient_fibonacci,
    golden_series,
    golden_value,
    golden_value_exact,
    membership_witness,
    operator_multiplier,
    parse_qsqrt5,
    parse_scalar,
    rising_ratio,
    solve_schwarz,
)

T_FLOAT = (math.sqrt(5) - 1) / 2


def report(capsys, number: int, ok: bool, text: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


def rand_fraction(rng, span):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def test_criterion_1_inverse_routes_agree(capsys):
    rng = random.Random(11)
    started = time.perf_counter()
    ok = True
    for _ in range(100):
        upper = [rand_fraction(rng, 100) for _ in range(9)]
        f = NormalizedSeries.from_upper(upper)
        if faber_inverse_coefficients(f) != f.revert():
            ok = False
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30
    report(
        capsys,
        1,
        ok,
        "100 random normalized rational series at order 10: Lagrange (Miller) inverse "
        f"equals triangular reversion exactly ({elapsed:.1f}s)",
    )


def test_criterion_2_low_order_inverse_formulas(capsys):
    rng = random.Random(12)
    ok = True
    for _ in range(200):
        a2, a3, a4 = (rand_fraction(rng, 100) for _ in range(3))
        g = faber_inverse_coefficients(NormalizedSeries.from_upper([a2, a3, a4]))
        ok = ok and g.coefficient(2) == -a2
        ok = ok and g.coefficient(3) == 2 * a2**2 - a3
        ok = ok and g.coefficient(4) == -(5 * a2**3 - 5 * a2 * a3 + a4)
        if not ok:
            break
    report(capsys, 2, ok, "order-4 inverse coefficients match the closed formulas exactly")


def test_criterion_3_generator_coefficients_three_ways(capsys):
    started = time.perf_counter()
    series = golden_series(50)
    ok = golden_coefficient(1) == TAU and golden_coefficient(2) == 3 * TAU * TAU
    for n in range(1, 51):
        recursion = golden_coefficient(n)
        ok = ok and recursion == golden_coefficient_fibonacci(n)
        ok = ok and recursion == series.coefficient(n)
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5
    report(
        capsys,
        3,
        ok,
        "recursion, Fibonacci form and series division agree through order 50 "
        f"({elapsed:.2f}s)",
    )


def test_criterion_4_generator_values(capsys):
    mirror = QSqrt5(Fraction(1, 4), Fraction(1, 4))  # -1/(2 tau)
    ok = golden_value_exact(mirror) == QSqrt5(1)
    boundary = cmath.exp(1j * math.acos(0.25))
    ok = ok and abs(abs(golden_value(boundary, precision=128)) - math.sqrt(5) / 5) < 1e-12
    ok = ok and 1 / ABS_TAU - ABS_TAU / (1 - ABS_TAU) == QSqrt5(0)
    report(
        capsys,
        4,
        ok,
        "exact value 1 at -1/(2 tau), boundary modulus sqrt(5)/5 within 1e-12, "
        "golden-section identity exact",
    )


def test_criterion_5_gap_series_witnesses(capsys):
    rng = random.Random(15)
    ok = True
    for n in range(3, 9):
        for _ in range(20):
            a_n = rand_fraction(rng, 40)
            if not a_n:
                a_n = Fraction(1, 3)
            coeffs = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 2) + [a_n]
            f = NormalizedSeries(coeffs)
            ok = ok and faber_inverse_coefficients(f).coefficient(n) == -a_n
            gamma = rand_fraction(rng, 9)
            if not gamma:
                gamma = Fraction(2)
            mu = abs(rand_fraction(rng, 6)) + Fraction(1, 7)
            rho = abs(rand_fraction(rng, 6)) + Fraction(1, 7)
            witness = membership_witness(f, ClassParams(gamma, OperatorParams(mu, rho)))
            forward = witness.map_candidate.coeffs
            backward = witness.inverse_candidate.coeffs
            ok = ok and forward[n - 2] == -backward[n - 2]
            expected = (
                ExactComplex(rising_ratio(mu + 1, rho + 1, n - 1))
                * n
                * ExactComplex(a_n)
                / ExactComplex(gamma)
                / ExactComplex(TAU)
            )
            ok = ok and forward[n - 2] == expected
            ok = ok and all(c == ExactComplex(0) for c in forward[: n - 2])
            if not ok:
                break
    report(
        capsys,
        5,
        ok,
        "gap-series inverse coefficient is the negation and the two membership "
        "witnesses are exact opposites",
    )


def test_criterion_6_bounds_specialize_and_enclose(capsys):
    rng = random.Random(16)
    op = OperatorParams(Fraction(1), Fraction(1))
    ok = True
    for n in range(3, 21):
        gamma = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        rep = bound_theorem1(n, gamma, op)
        ok = ok and parse_qsqrt5(rep.exact) == gamma * ABS_TAU / n
        if not ok:
            break
    for _ in range(50):
        g = ExactComplex(rand_fraction(rng, 9), rand_fraction(rng, 9))
        if not g:
            continue
        n = rng.randint(3, 12)
        rep = bound_theorem1(n, g, op)
        ok = ok and abs(rep.value - abs(complex(g)) * T_FLOAT / n) <= rep.error + 1e-12
        if not ok:
            break
    a2 = bound_a2(1, op)
    a3 = bound_a3(1, op)
    expected_a2 = min(T_FLOAT / math.sqrt(3 * 3 * T_FLOAT + 4), T_FLOAT)
    expected_a3 = min(T_FLOAT * T_FLOAT, 4 * T_FLOAT * T_FLOAT / (9 * T_FLOAT + 4))
    ok = ok and abs(a2.value - expected_a2) < 1e-12
    ok = ok and abs(a3.value - expected_a3) < 1e-12
    report(
        capsys,
        6,
        ok,
        "unit-parameter general bound collapses to |gamma| tau / n exactly, holds "
        "within 1e-12 on a 50-point complex grid, and the low-coefficient bounds "
        "match independent formulas",
    )


def test_criterion_7_schwarz_round_trip(capsys):
    rng = random.Random(17)
    ok = True
    for _ in range(50):
        c1 = Fraction(rng.randint(-50, 50), 100)
        rest = [rand_fraction(rng, 12) for _ in range(7)]
        chosen = [c1] + rest
        inner = TruncatedSeries([Fraction(0)] + chosen)
        recovered = solve_schwarz(golden_series(8).compose(inner))
        ok = ok and recovered.coeffs == tuple(ExactComplex(c) for c in chosen)
        if not ok:
            break
    report(
        capsys,
        7,
        ok,
        "50 random formal disc maps with |c_1| <= 1/2 at order 8 are recovered "
        "exactly from their generator compositions",
    )


def test_criterion_8_operator_action(capsys):
    rng = random.Random(18)
    ok = operator_multiplier(2, OperatorParams(Fraction(1, 2), Fraction(1, 4))) == Fraction(12, 5)
    for _ in range(30):
        mu = abs(rand_fraction(rng, 8)) + Fraction(1, 9)
        rho = abs(rand_fraction(rng, 8)) + Fraction(1, 9)
        ok = ok and operator_multiplier(1, OperatorParams(mu, rho)) == mu / rho
        if not ok:
            break
    shared = abs(rand_fraction(rng, 8)) + Fraction(1, 9)
    op = OperatorParams(shared, shared)
    ok = ok and all(operator_multiplier(n, op) == 1 for n in range(1, 21))
    report(
        capsys,
        8,
        ok,
        "leading multiplier is mu/rho, equal orders act as the identity through "
        "order 20, and the window example gives 12/5",
    )


def test_criterion_9_sharpness_replacement(capsys):
    # Theorem 1 is sharp at n = 3 for the order-3 witness: with |a| equal to
    # the bound, z + a z^3 puts both Schwarz candidates on the |c_2| boundary,
    # 1/1000 more violates and 1/1000 less is strictly inside.  n >= 4 needs
    # the full Schur test.
    weights = [ExactComplex(1), ExactComplex(1, 1), parse_scalar("1/2 + 1/3*sqrt5 + 2/3*i")]
    orders = [OperatorParams(1, 1), OperatorParams(Fraction(1, 2), Fraction(1, 4))]
    flips = 0
    for g in weights:
        for op in orders:
            ratio = (op.rho + 1) * (op.rho + 2) / (3 * (op.mu + 1) * (op.mu + 2))
            a = g * ExactComplex(ABS_TAU * ratio)
            exact = bound_theorem1(3, g, op).exact
            square = (
                parse_qsqrt5(exact[len("sqrt("):-1])
                if exact.startswith("sqrt(")
                else parse_qsqrt5(exact) ** 2
            )
            reports = [
                membership_witness(
                    NormalizedSeries.from_upper([0, a * scale], ExactComplex),
                    ClassParams(g, op),
                    order=3,
                )
                for scale in (1, Fraction(1001, 1000), Fraction(999, 1000))
            ]
            at_bound, above, below = reports
            flips += (
                square == a.abs_squared()
                and at_bound.consistent
                and at_bound.map_candidate.c2_on_boundary
                and at_bound.inverse_candidate.c2_on_boundary
                and not above.consistent
                and below.consistent
                and not below.map_candidate.c2_on_boundary
                and not below.inverse_candidate.c2_on_boundary
            )
    cases = len(weights) * len(orders)
    report(
        capsys,
        9,
        flips == cases,
        f"Theorem 1 at n = 3 is exactly where the order-3 witness of z + a z^3 "
        f"leaves the disc ({flips}/{cases} weights and orders flip at the bound)",
    )
