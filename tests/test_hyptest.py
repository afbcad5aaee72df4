from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

from ambiclt import hyptest
from ambiclt.closed_form import BadInterval, upper_indicator_limit
from ambiclt.hyptest import (
    EmptyTheta,
    Infeasible,
    NoConvergence,
    ThetaSet,
    calibrate_interval,
    optimize_ab,
    residual_statistic,
    size_power_simulation,
    wrong_acceptance,
)
from ambiclt.hyptest import TestSpec as HypSpec
from ambiclt.hyptest import test_decision as decide
from ambiclt.measures import (
    DiscreteMeasure,
    MeasureSet,
    coin_example,
    interval,
    validate_measure_set,
)
from ambiclt.statistics import SwitchRule
from ambiclt.worst_case import builtin_policies
from stepwise import initial_state_exact, step_mu, update_statistic

SPEC0 = HypSpec(kappa=0.0, sigma=1.0, alpha=0.05)


class TestSpecValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            HypSpec(kappa=0.1, sigma=1.0, alpha=1.2)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            HypSpec(kappa=0.1, sigma=0.0, alpha=0.05)


class TestCalibration:
    def test_classical_quantile_recovered(self):
        a, b = calibrate_interval(SPEC0)
        assert a == -b
        assert b == pytest.approx(1.959964, abs=1e-5)

    @pytest.mark.parametrize("kappa", [0.0, 0.1, 0.3])
    def test_coverage_residual(self, kappa):
        spec = HypSpec(kappa=kappa, sigma=1.0, alpha=0.05)
        a, b = calibrate_interval(spec)
        resid = abs(upper_indicator_limit(interval(-kappa, kappa), a, b) - 0.95)
        assert resid <= 1e-9

    def test_ambiguity_narrows_the_calibrated_interval(self):
        # calibration targets the *upper* probability, which rises with the
        # ambiguity half-width at fixed endpoints, so the solved b shrinks
        widths = []
        for kappa in (0.0, 0.2, 0.4):
            a, b = calibrate_interval(HypSpec(kappa=kappa, sigma=1.0, alpha=0.05))
            widths.append(b)
        assert widths[0] > widths[1] > widths[2]

    def test_high_alpha_shrinks_the_interval(self):
        _, b = calibrate_interval(HypSpec(kappa=0.0, sigma=1.0, alpha=0.999))
        assert 0.0 < b < 0.01

    def test_asymmetric_mode(self):
        spec = HypSpec(kappa=0.2, sigma=1.0, alpha=0.05)
        a, b = calibrate_interval(spec, symmetric=False, a=-3.0)
        cov = upper_indicator_limit(interval(-0.2, 0.2), a, b)
        assert a == -3.0
        assert cov == pytest.approx(0.95, abs=1e-9)

    def test_infeasible_left_endpoint(self):
        spec = HypSpec(kappa=0.0, sigma=1.0, alpha=0.05)
        with pytest.raises(Infeasible):
            calibrate_interval(spec, symmetric=False, a=2.0)


class TestWrongAcceptance:
    def test_zero_offset_is_the_coverage_itself(self):
        spec = HypSpec(kappa=0.3, sigma=1.0, alpha=0.05)
        a, b = calibrate_interval(spec)
        # same code path, exact equality
        assert wrong_acceptance(spec, a, b, 0.0) == upper_indicator_limit(
            interval(-0.3, 0.3), a, b
        )

    def test_large_offset_vanishes(self):
        spec = HypSpec(kappa=0.3, sigma=1.0, alpha=0.05)
        a, b = calibrate_interval(spec)
        assert wrong_acceptance(spec, a, b, 50.0) == pytest.approx(0.0, abs=1e-12)

    def test_unit_offset_strictly_inside(self):
        spec = HypSpec(kappa=0.3, sigma=1.0, alpha=0.05)
        a, b = calibrate_interval(spec)
        value = wrong_acceptance(spec, a, b, 1.0)
        assert 0.0 < value < 0.95

    def test_power_monotone_beyond_half_width(self):
        spec = HypSpec(kappa=0.3, sigma=1.0, alpha=0.05)
        a, b = calibrate_interval(spec)
        half = (b - a) / 2.0
        values = [wrong_acceptance(spec, a, b, half + d) for d in (0.0, 0.5, 1.0, 2.0)]
        assert all(y <= x + 1e-12 for x, y in zip(values, values[1:]))

    def test_bad_interval(self):
        with pytest.raises(BadInterval):
            wrong_acceptance(SPEC0, 1.0, 1.0, 0.5)


class TestOptimizeAb:
    def test_never_worse_than_symmetric(self):
        spec = HypSpec(kappa=0.0, sigma=1.0, alpha=0.05)
        a_sym, b_sym = calibrate_interval(spec)
        _, _, best = optimize_ab(spec, 1.0)
        assert best <= wrong_acceptance(spec, a_sym, b_sym, 1.0) + 1e-12

    @pytest.mark.parametrize("xi", [-1.0, 0.01, 1.0])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.3])
    @pytest.mark.parametrize("kappa", [0.0, 0.3, 1.0, 3.0])
    def test_matches_grid_search_oracle(self, kappa, alpha, xi):
        # the oracle calibrates b for each left endpoint a on a grid that runs
        # past the largest feasible a, and keeps the least wrong acceptance
        spec = HypSpec(kappa=kappa, sigma=1.0, alpha=alpha)
        a, b, best = optimize_ab(spec, xi)
        grid_vals = []
        for left in np.linspace(-10.0 - kappa, kappa + 1.0, 60):
            try:
                aa, bb = calibrate_interval(spec, symmetric=False, a=float(left))
            except Infeasible:
                continue
            grid_vals.append(wrong_acceptance(spec, aa, bb, xi))
        assert best <= min(grid_vals) + 1e-12
        assert (a if xi > 0 else b) == (-np.inf if xi > 0 else np.inf)

    def test_positive_offset_shifts_away(self):
        # optimal interval sits left of the symmetric one when xi > 0
        spec = HypSpec(kappa=0.0, sigma=1.0, alpha=0.05)
        a_sym, _ = calibrate_interval(spec)
        a_opt, b_opt, _ = optimize_ab(spec, 1.0)
        assert a_opt < a_sym and b_opt < -a_sym

    def test_small_offset_objective_near_coverage(self):
        spec = HypSpec(kappa=0.0, sigma=1.0, alpha=0.05)
        _, _, best = optimize_ab(spec, 1e-6)
        assert best == pytest.approx(0.95, abs=1e-4)

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            optimize_ab(SPEC0, 0.0)

    def test_constraint_binds_under_ambiguity(self):
        spec = HypSpec(kappa=0.3, sigma=1.0, alpha=0.1)
        a, b, _ = optimize_ab(spec, 0.8)
        cov = upper_indicator_limit(interval(-0.3, 0.3), a, b)
        assert cov == pytest.approx(0.9, abs=1e-9)

    def test_missed_coverage_constraint_raises(self, monkeypatch):
        # a normal quantile that is off by 0.1 misses the coverage target;
        # the check must survive python -O
        monkeypatch.setattr(hyptest, "_NormalDist", lambda: NormalDist(0.1, 1.0))
        with pytest.raises(NoConvergence):
            optimize_ab(HypSpec(kappa=0.3, sigma=1.0, alpha=0.1), 0.8)


class TestDecision:
    def test_interior_point_accepted(self):
        a, b = -2.0, 2.0
        assert decide(0.0, a, b, ThetaSet.point(0.0)) == "accept"

    def test_just_outside_rejected(self):
        a, b = -2.0, 2.0
        assert decide(2.01, a, b, ThetaSet.point(0.0)) == "reject"

    def test_boundary_accepted(self):
        # closed acceptance region
        assert decide(2.0, -2.0, 2.0, ThetaSet.point(0.0)) == "accept"

    def test_interval_and_finite_sets(self):
        assert decide(0.0, -1.0, 1.0, ThetaSet.closed_interval(0.9, 4.0)) == "accept"
        assert decide(0.0, -1.0, 1.0, ThetaSet.closed_interval(1.1, 4.0)) == "reject"
        assert decide(0.0, -1.0, 1.0, ThetaSet.finite([-5.0, 0.7])) == "accept"

    def test_one_representation(self):
        # every kind is a tuple of closed intervals; a point is a degenerate one
        point = ThetaSet.point(0.5)
        assert point == ThetaSet.finite([0.5]) == ThetaSet.closed_interval(0.5, 0.5)
        assert ThetaSet.finite([0.7, -5.0]).intervals == ((-5.0, -5.0), (0.7, 0.7))
        assert decide(0.0, -1.0, 1.0, ThetaSet.finite([-5.0, 1.2])) == "reject"

    def test_empty_theta(self):
        with pytest.raises(EmptyTheta):
            ThetaSet.closed_interval(2.0, 1.0)
        with pytest.raises(EmptyTheta):
            ThetaSet.finite([])


class TestShiftIdentity:
    def test_statistic_shifts_exactly_stepwise(self):
        # x = theta + y gives M_x = theta + M_y at every step, exactly
        theta = Fraction(7, 4)
        L_y = coin_example("3/5", "3/10")
        L_x = L_y.shifted(theta)
        iv_y = validate_measure_set(L_y)
        iv_x = validate_measure_set(L_x)
        c = Fraction(1, 2)
        rule_x = SwitchRule(float(c), iv_x)
        rule_y = SwitchRule(float(c - theta), iv_y)
        ys = [1, -1, 0, 1, 0, -1, 1, 1]
        n = len(ys)
        sx = initial_state_exact(n, iv_x)
        sy = initial_state_exact(n, iv_y)
        for y in ys:
            mu_x = step_mu(sx, rule_x)
            mu_y = step_mu(sy, rule_y)
            assert mu_x == theta + mu_y
            sx = update_statistic(sx, Fraction(y) + theta, rule_x)
            sy = update_statistic(sy, y, rule_y)
            # the average term accumulates theta*m/n; deviations cancel exactly
            assert sx.M == sy.M.shift(theta * Fraction(sx.m, n), 0)
        assert sx.M == sy.M.shift(theta, 0)  # full shift at the horizon


class TestSimulation:
    ERRORS = MeasureSet((DiscreteMeasure((1, -1), ("1/2", "1/2")),))

    def test_deterministic_given_seed(self):
        a, b = calibrate_interval(SPEC0)
        one = size_power_simulation(self.ERRORS, SPEC0, a, b, 0.0, 200, 3000, seed=5)
        two = size_power_simulation(self.ERRORS, SPEC0, a, b, 0.0, 200, 3000, seed=5)
        assert one == two

    def test_null_acceptance_near_exact_value(self):
        # exact n=400 acceptance probability for this error law is 0.93582
        a, b = calibrate_interval(SPEC0)
        rate, stderr = size_power_simulation(
            self.ERRORS, SPEC0, a, b, 0.0, 400, 4000, seed=20240801
        )
        assert rate == pytest.approx(0.93582, abs=0.02)
        assert 0.0 < stderr < 0.01

    def test_gross_misspecification_rejected(self):
        a, b = calibrate_interval(SPEC0)
        rate, _ = size_power_simulation(self.ERRORS, SPEC0, a, b, 10.0, 400, 1000, seed=7)
        assert rate == 0.0

    def test_null_acceptance_does_not_depend_on_theta0(self):
        # under the null the residuals are the errors whatever theta0 is
        spec = HypSpec(kappa=0.3, sigma=0.9, alpha=0.05)
        a, b = calibrate_interval(spec)
        L = coin_example("3/5", "3/10")
        rates = [size_power_simulation(L, HypSpec(0.3, 0.9, 0.05, theta0=t), a, b, t,
                                       200, 4000, seed=5)[0] for t in (0.0, 1.0, 3.0)]
        assert max(rates) - min(rates) <= 1 / 4000

    def test_policy_sweep_below_the_limit(self):
        spec = HypSpec(kappa=0.3, sigma=0.9, alpha=0.05)
        a, b = calibrate_interval(spec)
        L = coin_example("3/5", "3/10")
        iv = validate_measure_set(L)
        rule = SwitchRule((a + b) / 2.0, iv)
        limit = wrong_acceptance(spec, a, b, 0.0)
        for k, pol in enumerate(builtin_policies(L, rule)):
            rate, _ = size_power_simulation(
                L, spec, a, b, 0.0, 400, 3000, seed=200 + k, policy=pol
            )
            assert rate <= limit + 0.05


class TestResidualStatistic:
    def test_matches_direct_path_statistic(self):
        spec = HypSpec(kappa=0.3, sigma=0.9, alpha=0.05, theta0=1.0)
        a, b = calibrate_interval(spec)
        xs = [2.0, 0.0, 1.0, 2.0, 1.0]
        got = residual_statistic(xs, spec, a, b)
        from ambiclt.statistics import path_statistic

        rule = SwitchRule((a + b) / 2.0, interval(-0.3, 0.3, 0.9))
        want = path_statistic([x - 1.0 for x in xs], 5, rule)
        assert got == want
