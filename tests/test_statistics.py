import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiclt._exact import ExactValue, sqrt_exact
from ambiclt.measures import coin_example, interval, validate_measure_set
from ambiclt.statistics import (
    VARIANT_M,
    VARIANT_TILDE,
    LengthMismatch,
    SwitchRule,
    condition1_diagnostic,
    increment,
    path_statistic,
    read_path_csv,
    statistic_trace,
)
from stepwise import (
    HorizonExceeded,
    StatState,
    initial_state,
    initial_state_exact,
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

    @pytest.mark.parametrize("m", [0, 8])
    def test_step_outside_the_horizon(self, m):
        with pytest.raises(ValueError, match="need 1 <= m <= n"):
            RULE.threshold(m, 7)

    def test_correctly_rounded(self):
        # the coin moved by -7/3 and centered at -7/3: the exact threshold at
        # step 1 is 0, where -mid*(1 - (m-1)/n) + c in floats gives -4.4e-16
        shifted = COIN.shifted(Fraction(-7, 3))
        rule = SwitchRule(Fraction(-7, 3), validate_measure_set(shifted))
        for n in (1, 24, 40):
            for m in range(1, n + 1):
                assert rule.threshold(m, n) == float(rule.threshold_exact(m, n))


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


def _chain(xs, n, rule, variant, exact=False):
    """The one-step API folded over a path: [(mu_m, M_m) for m = 1..n]."""
    state = initial_state_exact(n, rule.interval, variant) if exact else initial_state(n, variant)
    choose = step_mu if variant == VARIANT_M else step_mu_tilde
    steps = []
    for x in xs:
        mu = choose(state, rule)
        state = update_statistic(state, x, rule)
        steps.append((mu, state.M))
    return steps


def _as_input(draw, x: Fraction):
    """x as an int, a Fraction, a float or a "p/q" string."""
    kinds = ["fraction", "float", "ratio"] + (["int"] if x.denominator == 1 else [])
    kind = draw(st.sampled_from(kinds))
    return {"int": lambda: int(x), "fraction": lambda: x, "float": lambda: float(x),
            "ratio": lambda: f"{x.numerator}/{x.denominator}"}[kind]()


@st.composite
def _fold_cases(draw):
    den = draw(st.integers(3, 12))
    q = draw(st.integers(1, (den - 1) // 2))
    p = draw(st.integers(q + 1, den - q))
    L = coin_example(Fraction(p, den), Fraction(q, den))
    if draw(st.booleans()):
        L = L.shifted(Fraction(draw(st.integers(-6, 6)), 6))
    iv = validate_measure_set(L)
    # horizons where sqrt(n*sigma^2) is rational, so the statistic is too
    rational = [n for n in range(1, 13) if sqrt_exact(n * iv.variance_exact()) is not None]
    n = draw(st.sampled_from(rational) if rational and draw(st.booleans()) else st.integers(1, 12))
    xs = draw(st.lists(st.sampled_from(L.values), min_size=n, max_size=n))
    variant = draw(st.sampled_from([VARIANT_M, VARIANT_TILDE]))
    center = draw(st.sampled_from([0.0, math.inf, -math.inf, None, "reached"]))
    if center == "reached" and n > 1:
        # move the threshold of step k + 1 onto the value that the path
        # reaches after k steps, when that value is rational: a tie whenever
        # the move leaves the first k choices of mean as they were
        k, center = draw(st.integers(1, n - 1)), Fraction(0)
        for _ in range(2):
            rule = SwitchRule(center, iv)
            value = _chain(xs[:k], n, rule, variant, exact=True)[-1][1]
            center = center + value.u - rule.threshold_exact(k + 1, n) if value.w == 0 else None
            if center is None:
                break
    if center is None or center == "reached":
        center = draw(st.integers(-20, 20)) / 20
    return xs, [_as_input(draw, x) for x in xs], n, SwitchRule(center, iv), variant


class TestFold:
    @given(case=_fold_cases())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_fold_equals_the_one_step_chain(self, case):
        xs, inputs, n, rule, variant = case
        exact = path_statistic(inputs, n, rule, variant, exact=True)
        want = _chain(inputs, n, rule, variant, exact=True)[-1][1]
        assert (str(exact.u), str(exact.w)) == (str(want.u), str(want.w))
        chain = _chain(inputs, n, rule, variant)
        assert repr(path_statistic(inputs, n, rule, variant)) == repr(chain[-1][1])
        rows = statistic_trace(inputs, n, rule, variant)
        assert repr(rows) == repr([(m, mu, M) for m, (mu, M) in enumerate(chain, 1)])

    PATH = [1, -1, 0, 1, 1, -1, 0, 0, 1, -1, 1, 1, 0, -1]

    @pytest.mark.parametrize("kind", ["int", "float", "ratio"])
    @pytest.mark.parametrize("center", [0.0, 0.17, math.inf, -math.inf])
    @pytest.mark.parametrize("variant", [VARIANT_M, VARIANT_TILDE])
    def test_float_fold_is_the_advance_chain(self, variant, center, kind):
        # the fold takes advance's constants once per path, then the same
        # float operations in the same order: equal bit for bit
        xs = [Fraction(x) + (0 if kind == "int" else Fraction(1, 3)) for x in self.PATH]
        inputs = {"int": [int(x) for x in xs], "float": [float(x) for x in xs],
                  "ratio": [f"{x.numerator}/{x.denominator}" for x in xs]}[kind]
        n, rule = len(xs), SwitchRule(center, IV)
        inc = increment("special" if variant == VARIANT_M else "tilde")
        M, rows = 0.0, []
        for m, x in enumerate(xs, 1):
            mu = rule.mean(M, rule.threshold(m, n), inc.tilde)
            M = inc.advance(M, float(x), mu, n, float(IV.sigma))
            rows.append((m, mu, M))
        assert repr(path_statistic(inputs, n, rule, variant)) == repr(M)
        assert repr(statistic_trace(inputs, n, rule, variant)) == repr(rows)

    @pytest.mark.parametrize("center", [0.0, 0.17, math.inf, -math.inf])
    @pytest.mark.parametrize("variant", [VARIANT_M, VARIANT_TILDE])
    def test_exact_fold_of_an_int_path_reads_like_fractions_and_strings(self, variant, center):
        # an int path is summed as ints, any other through to_fraction
        rule = SwitchRule(center, IV)
        n = len(self.PATH)
        want = path_statistic(self.PATH, n, rule, variant, exact=True)
        for xs in ([Fraction(x) for x in self.PATH], [str(x) for x in self.PATH]):
            got = path_statistic(xs, n, rule, variant, exact=True)
            assert (str(got.u), str(got.w), got.s) == (str(want.u), str(want.w), want.s)

    def test_float_fold_reads_ratio_strings(self):
        rule = SwitchRule(0, IV)
        want = path_statistic([1 / 3, 1, -1], 3, rule)
        assert path_statistic(["1/3", 1, -1], 3, rule) == want
        state = update_statistic(initial_state(3), "1/3", rule)
        assert state.M == update_statistic(initial_state(3), 1 / 3, rule).M
        # strings float() reads keep its reading, beside "p/q" ones too
        for text in ("inf", "1e400", "-2.5"):
            want = update_statistic(initial_state(3), float(text), rule).M
            assert update_statistic(initial_state(3), text, rule).M == want
            assert path_statistic(["1/3", text, -1], 3, rule) == path_statistic([1 / 3, float(text), -1], 3, rule)

    @pytest.mark.parametrize("variant, head", [(VARIANT_TILDE, [0, 0]), (VARIANT_M, [-1, 0, 0, 1])])
    def test_ties_at_a_rational_root_horizon(self, variant, head, monkeypatch):
        # n*sigma^2 = 9*81/100 has the rational root 27/10, so the statistic is
        # rational; with the center -2/9 the path's head ends exactly on the
        # threshold, where the float value alone rounds to the wrong side
        n, rule = 9, SwitchRule(Fraction(-2, 9), IV)
        xs = head + [1] + [0] * (n - len(head) - 1)
        chain = _chain(xs, n, rule, variant, exact=True)
        assert chain[len(head) - 1][1].cmp(rule.threshold_exact(len(head) + 1, n)) == 0
        exact_tests = []
        upper = SwitchRule.upper

        def spy(self, M, threshold, tilde=False):
            exact_tests.append(isinstance(M, ExactValue))
            return upper(self, M, threshold, tilde)

        monkeypatch.setattr(SwitchRule, "upper", spy)
        got = path_statistic(xs, n, rule, variant, exact=True)
        assert any(exact_tests)
        assert (str(got.u), str(got.w)) == (str(chain[-1][1].u), str(chain[-1][1].w))

    def test_centers_on_reachable_values_at_a_rational_root_horizon(self):
        # every rational value reached within three steps, as the center: the
        # paths through it meet the threshold exactly, at all sorts of steps
        n = 9
        centers = {_chain(head, n, RULE, VARIANT_M, exact=True)[-1][1].u
                   for k in (1, 2, 3) for head in product((1, -1, 0), repeat=k)}
        for center in sorted(centers):
            rule = SwitchRule(center, IV)
            for head in product((1, -1, 0), repeat=4):
                xs = list(head) + [1, 0, 0, -1, 0]
                for variant in (VARIANT_M, VARIANT_TILDE):
                    got = path_statistic(xs, n, rule, variant, exact=True)
                    want = _chain(xs, n, rule, variant, exact=True)[-1][1]
                    assert (str(got.u), str(got.w)) == (str(want.u), str(want.w))

    def test_threshold_tables_of_equal_rules_stay_apart(self):
        # 0.1 equals the Fraction of its binary value, but to_fraction reads
        # the float as 1/10
        rules = SwitchRule(0.1, IV), SwitchRule(Fraction(0.1), IV)
        assert rules[0] == rules[1]
        for rule in rules:
            exact, rounded = rule._thresholds(5)
            assert exact == tuple(rule.threshold_exact(m, 5) for m in range(1, 6))
            assert rounded == tuple(float(t) for t in exact)

    def test_empty_path(self):
        assert path_statistic([], 0, RULE) == 0.0
        assert statistic_trace([], 0, RULE) == []
        with pytest.raises(ValueError, match="scale must be positive"):
            path_statistic([], 0, RULE, exact=True)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            path_statistic([1], 1, RULE, "M-hat")


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

    @pytest.mark.parametrize("delta", [0, 0.0, -1, "-1/10", "0"])
    def test_delta_must_be_positive(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            condition1_diagnostic(COIN, 5, delta, RULE)

    def test_delta_reads_like_the_band_probability(self):
        # a "p/q" string is the Fraction it names, as band_probability_sup reads it
        value = condition1_diagnostic(COIN, 6, "1/10", RULE)
        assert value == condition1_diagnostic(COIN, 6, Fraction(1, 10), RULE) > 0
        assert condition1_diagnostic(COIN, 6, "0.1", RULE) == value

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

    def test_trace_bytes(self, tmp_path):
        rule = SwitchRule(0.17, IV)
        xs = [1, -1, 0, 1, "0.5", -1]
        want = {
            VARIANT_M: b"m,mu_m,M_m\r\n1,0.3,0.48419311480522675\r\n2,-0.3,5.551115123125783e-17\r\n"
                       b"3,0.3,-0.13608276348795428\r\n4,0.3,0.3481103513172724\r\n"
                       b"5,-0.3,0.7943310539518174\r\n6,-0.3,0.31013793914659066\r\n",
            VARIANT_TILDE: b"m,mu_m,M_m\r\n1,-0.3,0.7563586417811354\r\n2,0.3,0.0\r\n"
                           b"3,-0.3,0.13608276348795434\r\n4,-0.3,0.8924414052690898\r\n"
                           b"5,0.3,1.066496580927726\r\n6,0.3,0.3101379391465906\r\n",
        }
        for variant, expected in want.items():
            out = tmp_path / f"{variant}.csv"
            write_trace_csv(statistic_trace(xs, 6, rule, variant), out)
            assert out.read_bytes() == expected

    def test_read_paths_with_header(self, tmp_path):
        src = tmp_path / "obs.csv"
        src.write_text("x\n1.0\n-1.0\n0.5\n")
        assert read_path_csv(src) == [1.0, -1.0, 0.5]

    def test_read_paths_with_fractions(self, tmp_path):
        # a first row that reads as a number is an observation, "p/q" included
        src = tmp_path / "obs.csv"
        src.write_text("1/3\n1\n-1\n")
        assert read_path_csv(src) == [1 / 3, 1.0, -1.0]
        src.write_text("x\n1\n-2/7\n0.5\n")
        assert read_path_csv(src) == [1.0, -2 / 7, 0.5]

    def test_read_paths_rejects_a_later_unreadable_row(self, tmp_path):
        src = tmp_path / "obs.csv"
        src.write_text("x\n1\nabc\n")
        with pytest.raises(ValueError, match="abc"):
            read_path_csv(src)
