"""Coefficient bounds: exact carriers, branch selection, corollary replays."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from faberfib import (
    ABS_TAU,
    VIOLATED,
    ClassParams,
    ExactComplex,
    Interval,
    NormalizedSeries,
    OperatorParams,
    QSqrt5,
    bound_a2,
    bound_a3,
    bound_theorem1,
    corollary_check,
    membership_witness,
    parse_qsqrt5,
    parse_scalar,
    rising_ratio,
)
from faberfib import bounds
from faberfib.bounds import _sign

T = (math.sqrt(5) - 1) / 2
OP11 = OperatorParams(Fraction(1), Fraction(1))


def rand_gamma(rng, span=8):
    while True:
        g = ExactComplex(
            Fraction(rng.randint(-span, span), rng.randint(1, span)),
            Fraction(rng.randint(-span, span), rng.randint(1, span)),
        )
        if g:
            return g


def expected_a2_float(gamma: complex) -> float:
    ag = abs(gamma)
    return min(ag * T / math.sqrt(3 * abs(gamma - 4) * T + 4), T * math.sqrt(ag))


def expected_a3_float(gamma: complex) -> float:
    ag = abs(gamma)
    return min(ag * T * T, (abs(gamma - 4) + ag) * T * T * ag / (3 * abs(gamma - 4) * T + 4))


class TestTheorem1:
    def test_unit_parameters_exact(self):
        report = bound_theorem1(3, 1, OP11)
        assert report.kind == "general-coefficient"
        assert report.exact == "-1/6 + 1/6*sqrt5"
        assert parse_qsqrt5(report.exact) == ABS_TAU / 3
        assert abs(report.value - 0.2060113295832983) < 1e-15
        assert report.error < 1e-15

    def test_collapses_to_tau_over_n(self):
        rng = random.Random(601)
        for n in range(3, 21):
            gamma = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            report = bound_theorem1(n, gamma, OP11)
            assert parse_qsqrt5(report.exact) == gamma * ABS_TAU / n

    def test_general_rational_weight(self):
        op = OperatorParams(Fraction(1, 2), Fraction(1, 4))
        report = bound_theorem1(4, Fraction(3, 2), op)
        assert report.exact == "-117/896 + 117/896*sqrt5"
        assert abs(report.value - 0.16140619795477165) < 1e-15
        expected = Fraction(3, 2) * ABS_TAU * rising_ratio(Fraction(5, 4), Fraction(3, 2), 3) / 4
        assert parse_qsqrt5(report.exact) == expected

    def test_complex_weight_exact_square(self):
        report = bound_theorem1(3, ExactComplex(1, 1), OP11)
        assert report.exact is not None
        assert report.exact.startswith("sqrt(")
        assert abs(report.value - math.sqrt(2) * T / 3) <= report.error + 1e-12

    def test_complex_grid_against_independent_formula(self):
        rng = random.Random(602)
        for _ in range(25):
            g = rand_gamma(rng)
            n = rng.randint(3, 9)
            report = bound_theorem1(n, g, OP11)
            assert abs(report.value - abs(complex(g)) * T / n) <= report.error + 1e-12

    def test_monotone_in_n_when_mu_dominates(self):
        for mu, rho in ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 4)),
                        (Fraction(1), Fraction(1, 3)), (Fraction(7, 8), Fraction(2, 5))):
            op = OperatorParams(mu, rho)
            previous = None
            for n in range(3, 12):
                report = bound_theorem1(n, Fraction(5, 3), op)
                if previous is not None:
                    assert report.value + report.error < previous.value - previous.error
                previous = report

    def test_index_and_weight_guards(self):
        with pytest.raises(ValueError):
            bound_theorem1(2, 1, OP11)
        with pytest.raises(ValueError):
            bound_theorem1(3, 0, OP11)


class TestTheorem1WitnessFlip:
    """A second exact route for Theorem 1 at n = 3.

    For f = z + a z^3 truncated at order 3, both Schwarz candidates are
    (0, c_2) with |c_2| proportional to |a|, so the order-3 witness
    reaches the |c_2| <= 1 boundary exactly when |a| equals the bound.
    At n >= 4 the two-condition witness does not see the bound; that
    needs the full Schur test.
    """

    @pytest.mark.parametrize(
        "gamma",
        # rational modulus, modulus outside Q(sqrt 5), then weights in Q(sqrt 5, i)
        ["1", "-2", "3/5 + 4/5*i", "1 + i", "sqrt5", "1/2 + 1/3*sqrt5 + 2/3*i", "2 - sqrt5*i"],
    )
    @pytest.mark.parametrize(
        "mu, rho",
        [(1, 1), (Fraction(1, 2), Fraction(1, 4)), (Fraction(3, 4), Fraction(1, 2)), (2, 5)],
    )
    def test_witness_flips_at_the_bound(self, gamma, mu, rho):
        g = parse_scalar(gamma)
        op = OperatorParams(Fraction(mu), Fraction(rho))
        params = ClassParams(g, op)
        # gamma (rho+1)_2 / (3 (mu+1)_2) |tau|, written out rather than through rising_ratio
        ratio = (op.rho + 1) * (op.rho + 2) / (3 * (op.mu + 1) * (op.mu + 2))
        a = g * ExactComplex(ABS_TAU * ratio)

        exact = bound_theorem1(3, g, op).exact
        if exact.startswith("sqrt("):
            assert parse_qsqrt5(exact[len("sqrt("):-1]) == a.abs_squared()
        else:
            assert parse_qsqrt5(exact) ** 2 == a.abs_squared()

        def witness(scale):
            f = NormalizedSeries.from_upper([0, a * scale], ExactComplex)
            return membership_witness(f, params, order=3)

        at_bound = witness(1)
        assert at_bound.consistent
        assert at_bound.map_candidate.c2_on_boundary
        assert at_bound.inverse_candidate.c2_on_boundary
        assert witness(Fraction(1001, 1000)).verdict == VIOLATED
        inside = witness(Fraction(999, 1000))
        assert inside.consistent
        assert not inside.map_candidate.c2_on_boundary
        assert not inside.inverse_candidate.c2_on_boundary


class TestBoundA2:
    def test_unit_parameters(self):
        report = bound_a2(1, OP11)
        assert report.kind == "second-coefficient"
        assert report.branch == "first"
        assert report.exact == "sqrt(-21/202 + 13/202*sqrt5)"
        assert abs(report.value - 0.1998623747707316) < 1e-14
        assert abs(report.value - expected_a2_float(1)) <= report.error + 1e-12

    def test_branch_tie_at_four(self):
        report = bound_a2(4, OP11)
        assert report.branch == "tie"
        squared = parse_qsqrt5(report.exact[len("sqrt(") : -1])
        assert squared == 4 * (QSqrt5(Fraction(3, 2), Fraction(-1, 2)))  # 4 tau^2
        assert abs(report.value - 2 * T) < 1e-14

    def test_first_branch_never_loses_for_real_weights(self):
        rng = random.Random(603)
        for _ in range(20):
            gamma = Fraction(rng.randint(1, 40), rng.randint(1, 5))
            report = bound_a2(gamma, OP11)
            assert report.branch in ("first", "tie")

    def test_complex_weight_interval_route(self):
        report = bound_a2(ExactComplex(2, 1), OP11)
        assert report.exact is None
        assert abs(report.value - 0.4842034473862967) < 1e-12
        assert abs(report.value - expected_a2_float(2 + 1j)) <= report.error + 1e-12

    def test_random_complex_against_independent_formula(self):
        rng = random.Random(604)
        for _ in range(20):
            g = rand_gamma(rng)
            report = bound_a2(g, OP11)
            assert abs(report.value - expected_a2_float(complex(g))) <= report.error + 1e-12

    def test_minimum_no_larger_than_branches(self):
        rng = random.Random(605)
        for _ in range(15):
            g = rand_gamma(rng)
            report = bound_a2(g, OP11)
            for branch in report.branches:
                assert report.value <= branch.value + branch.error + report.error + 1e-15

    def test_branches_reported(self):
        report = bound_a2(1, OP11)
        assert tuple(b.label for b in report.branches) == ("first", "second")
        second = report.branches[1]
        # second branch at gamma = 1 is |tau| sqrt(1) = |tau|
        assert abs(second.value - T) < 1e-14


class TestBoundA3:
    def test_unit_parameters(self):
        report = bound_a3(1, OP11)
        assert report.kind == "third-coefficient"
        assert report.branch == "second"
        assert report.exact == "-42/101 + 26/101*sqrt5"
        assert abs(report.value - 0.15977987539598545) < 1e-14
        assert report.second_bracket_negative is True
        assert abs(report.value - expected_a3_float(1)) <= report.error + 1e-12

    def test_first_branch_for_large_weight(self):
        report = bound_a3(100, OP11)
        assert report.branch == "first"
        assert report.second_bracket_negative is False
        assert parse_qsqrt5(report.exact) == 100 * (QSqrt5(Fraction(3, 2), Fraction(-1, 2)))

    def test_bracket_flag_by_weight_size(self):
        assert bound_a3(Fraction(1, 10), OP11).second_bracket_negative is True
        assert bound_a3(Fraction(10), OP11).second_bracket_negative is False
        # interval route decides the flag too
        small_imag = bound_a3(ExactComplex(0, Fraction(1, 10)), OP11)
        assert small_imag.second_bracket_negative is True
        big_imag = bound_a3(ExactComplex(0, 10), OP11)
        assert big_imag.second_bracket_negative is False

    def test_complex_weight_interval_route(self):
        report = bound_a3(ExactComplex(2, 1), OP11)
        assert report.exact is None
        assert abs(report.value - 0.46890595692154846) < 1e-12
        assert abs(report.value - expected_a3_float(2 + 1j)) <= report.error + 1e-12

    def test_random_complex_against_independent_formula(self):
        rng = random.Random(606)
        for _ in range(20):
            g = rand_gamma(rng)
            report = bound_a3(g, OP11)
            assert abs(report.value - expected_a3_float(complex(g))) <= report.error + 1e-12

    def test_general_operator_orders(self):
        op = OperatorParams(Fraction(1, 2), Fraction(1, 4))
        report = bound_a3(Fraction(2), op)
        big_p = Fraction(3) * Fraction(3, 2) * Fraction(5, 2) / (Fraction(5, 4) * Fraction(9, 4))
        assert big_p == 4
        tau_sq = QSqrt5(Fraction(3, 2), Fraction(-1, 2))
        assert parse_qsqrt5(report.branches[0].exact) == 2 * tau_sq * 3 / big_p
        # independent float check of the reported minimum
        pf, qf = 4.0, float(Fraction(144, 25))
        ag = 2.0
        first_f = 3 * ag * T * T / pf
        second_f = (ag * T / pf) * (1 + (pf * ag * T - qf) / (abs(ag * pf - 3 * qf) * T + qf))
        assert abs(report.value - min(first_f, second_f)) <= report.error + 1e-12


ONE = QSqrt5(1)


class TestExactSign:
    def test_equal_values_by_different_routes_tie(self):
        # sqrt(2)*sqrt(3) against sqrt(6): no enclosure could ever separate them
        assert _sign(QSqrt5(0), ONE, QSqrt5(2) * 3, -ONE, QSqrt5(6)) == 0
        # 1 + sqrt5 = sqrt(6 + 2 sqrt5), and sqrt(6 + 2 sqrt5) - sqrt(6 - 2 sqrt5) = 2
        assert _sign(QSqrt5(1, 1), -ONE, QSqrt5(6, 2)) == 0
        assert _sign(QSqrt5(-2), ONE, QSqrt5(6, 2), -ONE, QSqrt5(6, -2)) == 0

    def test_distinct_values_decided(self):
        near = QSqrt5(Fraction(6000001, 1000000))
        assert _sign(QSqrt5(0), ONE, near, -ONE, QSqrt5(6)) == 1
        assert _sign(QSqrt5(0), -ONE, near, ONE, QSqrt5(6)) == -1

    def test_random_terms_against_mpmath(self):
        rng = random.Random(608)

        def rand_q5():
            return QSqrt5(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )

        with mpmath.workdps(60):
            def mp(x):
                return mpmath.mpf(x.rational_part.numerator) / x.rational_part.denominator + (
                    mpmath.mpf(x.radical_part.numerator) / x.radical_part.denominator
                ) * mpmath.sqrt(5)

            for _ in range(400):
                a, b, c = rand_q5(), rand_q5(), rand_q5()
                big_a, big_b = abs(rand_q5()), abs(rand_q5())
                value = mp(a) + mp(b) * mpmath.sqrt(mp(big_a)) + mp(c) * mpmath.sqrt(mp(big_b))
                if abs(value) > mpmath.mpf(10) ** -40:
                    assert _sign(a, b, big_a, c, big_b) == (1 if value > 0 else -1)


def aggregates(op):
    mu, rho = op.mu, op.rho
    return 3 * (mu + 1) * (mu + 2) / ((rho + 1) * (rho + 2)), 4 * (mu + 1) ** 2 / (rho + 1) ** 2


def interval_decisions(g, op, precision):
    """(a2 branch, a3 branch, a3 bracket negative) from interval enclosures.

    The precision doubles from `precision` to 1024 bits; a decision the
    enclosures never settle stays None.
    """
    big_p, big_q = aggregates(op)
    g2 = g.abs_squared()
    d2 = (g * big_p - 3 * big_q).abs_squared()
    decisions = [None, None, None]
    bits = precision
    while bits <= max(1024, precision) and None in decisions:
        abs_g = Interval.from_qsqrt5(g2, bits).sqrt(bits)
        abs_d = Interval.from_qsqrt5(d2, bits).sqrt(bits)
        t = Interval.from_qsqrt5(ABS_TAU, bits)
        p, q = Interval.point(big_p), Interval.point(big_q)
        denom = abs_d * t + q
        numer = p * abs_g * t - q
        pairs = (
            ((Interval.from_qsqrt5(g2, bits) * t * t / denom).sqrt(bits),
             (Interval.point(3) * abs_g / p).sqrt(bits) * t),
            (Interval.point(3) * abs_g * t * t / p,
             abs_g * t / p * (Interval.point(1) + numer / denom)),
        )
        for k, (first, second) in enumerate(pairs):
            if decisions[k] is None and first.hi < second.lo:
                decisions[k] = "first"
            elif decisions[k] is None and first.lo > second.hi:
                decisions[k] = "second"
        if decisions[2] is None and (numer.hi < 0 or numer.lo > 0):
            decisions[2] = numer.hi < 0
        bits *= 2
    return decisions


OPS = [OperatorParams(mu, rho) for mu, rho in (
    (Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 4)),
    (Fraction(7, 8), Fraction(2, 5)), (Fraction(3), Fraction(1, 3)),
)]


def rand_weight(rng, kind):
    def part():
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if "Q(sqrt5)" in kind:
            return QSqrt5(q, Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
        return q

    while True:
        g = ExactComplex(part(), part() if kind.startswith("complex") else 0)
        if g:
            return g


class TestExactDecisionsAgainstIntervals:
    @pytest.mark.parametrize("kind", ["rational", "real Q(sqrt5)", "complex rational",
                                      "complex Q(sqrt5)"])
    def test_branch_and_bracket_agree(self, kind):
        rng = random.Random(609)
        for op in OPS:
            for _ in range(10):
                g = rand_weight(rng, kind)
                for precision in (53, 128, 256):
                    a2_branch, a3_branch, negative = interval_decisions(g, op, precision)
                    assert None not in (a2_branch, a3_branch, negative)
                    assert bound_a2(g, op, precision).branch == a2_branch
                    a3 = bound_a3(g, op, precision)
                    assert a3.branch == a3_branch
                    assert a3.second_bracket_negative is negative

    def test_zero_bracket_is_not_negative(self):
        for op in OPS:
            big_p, big_q = aggregates(op)
            modulus = big_q / (big_p * ABS_TAU)  # P |gamma| |tau| = Q
            rotation = ExactComplex(Fraction(3, 5), Fraction(4, 5))
            for g in (ExactComplex(modulus), modulus * rotation):
                assert interval_decisions(g, op, 128)[2] is None
                assert bound_a3(g, op).second_bracket_negative is False

    def test_vanishing_discriminant_ties_both_bounds(self):
        for op in OPS:
            big_p, big_q = aggregates(op)
            g = 3 * big_q / big_p  # gamma P - 3Q = 0
            assert bound_a2(g, op).branch == "tie"
            assert bound_a3(g, op).branch == "tie"


class TestExactBranchesOverIntervals:
    """Every exact branch, evaluated a second time over the enclosed carrier.

    With no modulus counted as exact, each formula runs on intervals (and
    a value carried directly falls back to its exact square), so the two
    floats come from different routes and must agree within the sum of
    their error bounds.
    """

    @staticmethod
    def weights(op):
        big_p, big_q = aggregates(op)
        return [
            ExactComplex(Fraction(2, 3)),
            ExactComplex(Fraction(7)),
            ExactComplex(Fraction(3, 5), Fraction(4, 5)),
            ExactComplex(Fraction(-12, 5), Fraction(16, 5)),
            ExactComplex(QSqrt5(Fraction(1, 2), Fraction(3, 4))),
            ExactComplex(big_q / (big_p * ABS_TAU)),  # zero a3 bracket
            ExactComplex(3 * big_q / big_p),  # gamma P - 3Q = 0
        ]

    @pytest.mark.parametrize("precision", [128, 256])
    def test_floats_agree(self, precision, monkeypatch):
        init = bounds._Terms.__init__

        def no_exact_modulus(terms, g, op=None):
            init(terms, g, op)
            terms.abs_g = terms.abs_disc = None

        def reports():
            return [
                [bound_theorem1(4, g, op, precision), bound_a2(g, op, precision),
                 bound_a3(g, op, precision)]
                for op in OPS for g in self.weights(op)
            ]

        exact = reports()
        monkeypatch.setattr(bounds._Terms, "__init__", no_exact_modulus)
        enclosed = reports()

        checked = set()
        for exact_reports, enclosed_reports in zip(exact, enclosed):
            for a, b in zip(exact_reports, enclosed_reports):
                for x, y in [(a, b), *zip(a.branches, b.branches)]:
                    if x.exact is None or x.exact == y.exact:
                        continue  # not exact, or no second route (an exact square)
                    assert abs(x.value - y.value) <= x.error + y.error
                    checked.add((a.kind, getattr(x, "label", None)))
        assert checked == {
            ("general-coefficient", None),
            ("second-coefficient", None), ("second-coefficient", "first"),
            ("second-coefficient", "second"),
            ("third-coefficient", None), ("third-coefficient", "first"),
            ("third-coefficient", "second"),
        }


class TestCorollaryCheck:
    def test_default_grids_all_pass(self):
        sizes = {}
        for which in (1, 2, 3, 4):
            rows, ok = corollary_check(which)
            assert ok
            assert all(row["pass"] for row in rows)
            sizes[which] = len(rows)
        assert sizes == {1: 12, 2: 3, 3: 8, 4: 2}

    def test_custom_complex_grid(self):
        rng = random.Random(607)
        grid = [(rand_gamma(rng), rng.randint(3, 12)) for _ in range(50)]
        rows, ok = corollary_check(1, grid=grid)
        assert ok and len(rows) == 50

    def test_row_shape(self):
        rows, _ = corollary_check(3)
        for row in rows:
            assert set(row) == {"corollary", "bound", "gamma", "n", "expected", "actual", "pass"}
            assert row["bound"] in ("a_2", "a_3")
            assert row["n"] is None

    def test_which_guard(self):
        with pytest.raises(ValueError):
            corollary_check(5)
