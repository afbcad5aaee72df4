import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ambiclt._exact import ExactValue
from ambiclt.measures import coin_example, interval, validate_measure_set
from ambiclt.statistics import (
    VARIANT_M,
    VARIANT_TILDE,
    HorizonExceeded,
    LengthMismatch,
    StatState,
    SwitchRule,
    condition1_diagnostic,
    initial_state,
    initial_state_exact,
    path_statistic,
    read_path_csv,
    statistic_trace,
    step_mu,
    step_mu_tilde,
    update_statistic,
    write_trace_csv,
)

COIN = coin_example("3/5", "3/10")
IV = validate_measure_set(COIN)
RULE = SwitchRule(0.0, IV)


class TestSwitchRule:
    def test_threshold_shape(self):
        iv = interval(-0.1, 0.5, 1.0)  # midpoint 0.2
        rule = SwitchRule(1.0, iv)
        # -0.2*(1 - (m-1)/n) + 1
        assert rule.threshold(1, 10) == pytest.approx(0.8)
        assert rule.threshold(10, 10) == pytest.approx(1.0 - 0.2 * 0.1)

    def test_infinite_center(self):
        rule = SwitchRule(math.inf, IV)
        assert rule.threshold(3, 7) == math.inf


class TestChooserAgreement:
    # means -1/5 and 2/5: a nonzero midpoint, so thresholds move with m
    IV3 = interval(Fraction(-1, 5), Fraction(2, 5), Fraction(9, 10))

    @pytest.mark.parametrize("tilde", [False, True])
    @pytest.mark.parametrize("offset", [Fraction(-1, 2), Fraction(0), Fraction(1, 2)])
    @pytest.mark.parametrize("center", [0.25, math.inf, -math.inf])
    def test_float_array_and_exact_inputs_agree(self, center, offset, tilde):
        rule = SwitchRule(center, self.IV3)
        m, n = 3, 4
        thr_f, thr_e = rule.threshold(m, n), rule.threshold_exact(m, n)
        if math.isinf(center):  # the threshold is +/-inf: place M around 0
            base_f, base_e = 0.0, Fraction(0)
            upper = (center > 0) != tilde
        else:
            base_f, base_e = thr_f, thr_e
            upper = offset >= 0 if tilde else offset <= 0  # offset 0 is a tie
        M_exact = ExactValue(base_e + offset, Fraction(0), n * self.IV3.variance_exact())
        M_float = base_f + float(offset)
        want = Fraction(2, 5) if upper else Fraction(-1, 5)
        assert rule.mean(M_exact, thr_e, tilde) == want
        assert rule.mean(M_float, thr_f, tilde) == float(want)
        got = rule.mean(np.array([M_float, M_float]), thr_f, tilde)
        assert got.tolist() == [float(want)] * 2


class TestStepMu:
    def test_boundary_tie_goes_up(self):
        # M_0 = 0 and threshold 0: the tie selects the upper mean
        assert step_mu(initial_state(5), RULE) == 0.3

    def test_strictly_above_goes_down(self):
        st = StatState(1, 5, 0.1, VARIANT_M)
        assert step_mu(st, RULE) == -0.3

    def test_plus_infinity_center_freezes_upper(self):
        rule = SwitchRule(math.inf, IV)
        for M in (-5.0, 0.0, 5.0):
            assert step_mu(StatState(1, 5, M, VARIANT_M), rule) == 0.3

    def test_minus_infinity_center_freezes_lower(self):
        rule = SwitchRule(-math.inf, IV)
        assert step_mu(StatState(1, 5, -7.0, VARIANT_M), rule) == -0.3


class TestStepMuTilde:
    def test_boundary_tie_goes_up(self):
        st = initial_state(5, VARIANT_TILDE)
        assert step_mu_tilde(st, RULE) == 0.3

    def test_minus_infinity_center_freezes_upper(self):
        rule = SwitchRule(-math.inf, IV)
        assert step_mu_tilde(StatState(1, 5, -9.0, VARIANT_TILDE), rule) == 0.3

    def test_below_threshold_goes_down(self):
        st = StatState(1, 5, -0.1, VARIANT_TILDE)
        assert step_mu_tilde(st, RULE) == -0.3

    def test_variant_checked(self):
        with pytest.raises(ValueError):
            step_mu_tilde(initial_state(5, VARIANT_M), RULE)


class TestUpdateStatistic:
    # hand-evaluated one-step coin values, checked exactly

    def test_one_step_values(self):
        st = initial_state_exact(1, IV)
        assert update_statistic(st, 1, RULE).M.cmp(Fraction(16, 9)) == 0
        assert update_statistic(st, 0, RULE).M.cmp(Fraction(-1, 3)) == 0
        assert update_statistic(st, -1, RULE).M.cmp(Fraction(-22, 9)) == 0

    def test_observation_equal_to_mean_reduces_to_average_term(self):
        st = initial_state_exact(4, IV)
        out = update_statistic(st, Fraction(3, 10), RULE)  # x equals mu_1 = 0.3
        assert out.M.cmp(Fraction(3, 40)) == 0

    def test_horizon_guard(self):
        st = StatState(3, 3, 0.25, VARIANT_M)
        with pytest.raises(HorizonExceeded):
            update_statistic(st, 1.0, RULE)

    def test_float_and_exact_agree_off_ties(self):
        # path chosen so the statistic never lands exactly on a threshold;
        # at exact ties the two modes may branch apart by design
        xs = [1, 0, -1, 1, 1, 0]
        f = path_statistic(xs, 6, RULE)
        e = path_statistic(xs, 6, RULE, exact=True)
        assert f == pytest.approx(float(e), abs=1e-12)

    def test_exact_mode_resolves_ties_the_float_mode_may_miss(self):
        # [1, -1] returns the exact statistic to 0, a boundary tie
        state = initial_state_exact(6, IV)
        for x in (1, -1):
            state = update_statistic(state, x, RULE)
        assert state.M.cmp(0) == 0
        assert step_mu(state, RULE) == Fraction(3, 10)  # tie goes up, exactly


class TestPathStatistic:
    def test_one_step_path_set(self):
        got = {float(path_statistic([x], 1, RULE, exact=True)) for x in (1, -1, 0)}
        want = {16 / 9, -22 / 9, -1 / 3}
        assert all(min(abs(g - w) for w in want) < 1e-15 for g in got)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            path_statistic([1, 0], 3, RULE)

    def test_deterministic(self):
        xs = [1, 0, -1, 1, 0]
        assert path_statistic(xs, 5, RULE) == path_statistic(xs, 5, RULE)

    def test_singleton_collapses_to_classical_form(self):
        # with an unambiguous mean the switching never matters
        from ambiclt.measures import DiscreteMeasure, MeasureSet

        L = MeasureSet((DiscreteMeasure((1, -1, 0), ("0.45", "0.45", "0.1")),))
        iv = validate_measure_set(L)
        rule = SwitchRule(0.0, iv)
        mu = float(iv.mu_lower)
        sigma = float(iv.sigma)
        xs = [1, -1, 0, 1, -1, 1, 0, -1]
        n = len(xs)
        got = path_statistic(xs, n, rule)
        want = sum(xs) / n + sum((x - mu) for x in xs) / (sigma * math.sqrt(n))
        assert got == pytest.approx(want, abs=1e-12)

    def test_all_zero_path_keeps_upper_mean(self):
        # M stays nonpositive, so every step picks the upper mean
        n = 6
        trace = statistic_trace([0] * n, n, RULE)
        assert all(mu == 0.3 for _, mu, _ in trace)
        exact = path_statistic([0] * n, n, RULE, exact=True)
        # M_n = -kappa*n/(sigma*sqrt(n)) + 0 = -(0.3/0.9)*sqrt(n)... as a pair
        assert exact.cmp(Fraction(0)) < 0


class TestRationalClosure:
    def test_fold_matches_direct_formula_exhaustively(self):
        # every outcome path at n = 4: the exact fold equals the statistic
        # recomputed from its definition using the traced switching means
        n = 4
        sigma_sq = IV.sigma_sq
        for xs in product((1, -1, 0), repeat=n):
            state = initial_state_exact(n, IV)
            mus = []
            for x in xs:
                mus.append(step_mu(state, RULE))
                state = update_statistic(state, x, RULE)
            u = sum(Fraction(x, n) for x in xs)
            w = sum(Fraction(x) - mu for x, mu in zip(xs, mus))
            direct = ExactValue.create(u, w, n * sigma_sq)
            assert state.M == direct


class TestReductionIdentity:
    def test_centered_run_reproduces_means_stepwise(self):
        # recursion on y = x - mid with center c - mid tracks mu - mid exactly
        L = coin_example("3/5", "1/5")  # interval [-0.4, 0.4] shifted below
        base = validate_measure_set(L)
        mid = Fraction(1, 4)
        shifted = validate_measure_set(L.shifted(-mid))
        c = Fraction(1, 2)
        rule_x = SwitchRule(float(c), base)
        rule_y = SwitchRule(float(c - mid), shifted)
        xs = [1, 0, -1, 1, 1, 0, -1, -1]
        n = len(xs)
        sx = initial_state_exact(n, base)
        sy = initial_state_exact(n, shifted)
        for x in xs:
            mu_x = step_mu(sx, rule_x)
            mu_y = step_mu(sy, rule_y)
            assert mu_x - mid == mu_y
            sx = update_statistic(sx, x, rule_x)
            sy = update_statistic(sy, Fraction(x) - mid, rule_y)


class TestCondition1Diagnostic:
    def test_unambiguous_mean_gives_zero(self):
        from ambiclt.measures import DiscreteMeasure, MeasureSet

        L = MeasureSet((DiscreteMeasure((1, -1), ("0.5", "0.5")),))
        rule = SwitchRule(0.0, validate_measure_set(L))
        assert condition1_diagnostic(L, 10, 0.1, rule) == 0.0

    def test_tiny_band_off_lattice_is_empty(self):
        # with the center off the reachable value lattice, a small enough
        # band contains no state at all and the diagnostic vanishes
        rule = SwitchRule(0.17, IV)
        value = condition1_diagnostic(COIN, 8, Fraction(1, 10**9), rule)
        assert value == 0.0

    def test_centered_rule_keeps_the_initial_atom(self):
        # c = 0 puts the start state exactly on the switching threshold, so
        # the first step contributes its full mean gap at any delta > 0
        n = 8
        value = condition1_diagnostic(COIN, n, Fraction(1, 10**9), RULE)
        assert value >= 0.6 / n - 1e-15

    def test_monotone_in_delta(self):
        vals = [condition1_diagnostic(COIN, 20, d, RULE) for d in (0.02, 0.1, 0.2)]
        assert 0.0 <= vals[0] <= vals[1] <= vals[2] <= 0.6 + 1e-12

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            condition1_diagnostic(COIN, 5, 0.0, RULE)

    @pytest.mark.parametrize("n", [0, -2])
    def test_horizon_must_be_positive(self, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            condition1_diagnostic(COIN, n, 0.1, RULE)


class TestCsv:
    def test_trace_roundtrip(self, tmp_path):
        xs = [1.0, -1.0, 0.0, 1.0]
        rows = statistic_trace(xs, 4, RULE)
        out = tmp_path / "trace.csv"
        write_trace_csv(rows, out)
        text = out.read_text().splitlines()
        assert text[0] == "m,mu_m,M_m"
        assert len(text) == 5

    def test_read_paths_with_header(self, tmp_path):
        src = tmp_path / "obs.csv"
        src.write_text("x\n1.0\n-1.0\n0.5\n")
        assert read_path_csv(src) == [1.0, -1.0, 0.5]
