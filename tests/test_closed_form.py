import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ambiclt import closed_form, pde
from ambiclt.closed_form import (
    BadInterval,
    BadTime,
    NotMonotone,
    indicator_limit_detail,
    lower_indicator_limit,
    monotone_reduction,
    normal_cdf,
    one_sided_limit,
    reflected_density,
    shift_reduce,
    upper_indicator_limit,
)
from ambiclt.measures import interval
from ambiclt.terminal import TerminalFunction
from test_pde import gauss_integral


def series_cdf(x: float) -> float:
    """Independent standard normal cdf: Taylor series with odd double
    factorials, reliable for |x| <= 6."""
    term = x
    total = x
    k = 0
    while abs(term) > 1e-19 and k < 400:
        k += 1
        term *= x * x / (2 * k + 1)
        total += term
    return 0.5 + total * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


class TestNormalCdf:
    def test_symmetry_points(self):
        assert normal_cdf(0.0, 0.0) == 0.5
        for mu in (-2.0, 0.7, 5.0):
            assert normal_cdf(mu, mu) == 0.5

    def test_upper_quantile(self):
        # z_{0.975}: checked against the series oracle as well
        assert normal_cdf(0.0, 1.959964) == pytest.approx(0.975, abs=1e-6)
        assert series_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    @pytest.mark.parametrize("x", np.linspace(-6, 6, 25).tolist())
    def test_matches_series_oracle(self, x):
        assert normal_cdf(0.0, x) == pytest.approx(series_cdf(x), abs=1e-14)

    def test_matches_quadrature_oracle(self):
        val, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), -10, 1.3)
        assert normal_cdf(0.0, 1.3) == pytest.approx(val, abs=1e-11)

    def test_infinite_argument(self):
        assert normal_cdf(0.3, math.inf) == 1.0
        assert normal_cdf(0.3, -math.inf) == 0.0

    def test_deep_tail_relative_accuracy(self):
        # erfc route keeps relative precision where naive 1 - Phi would not
        got = normal_cdf(0.0, -10.0)
        assert got == pytest.approx(7.61985302416053e-24, rel=1e-12)

    def test_mean_must_be_finite(self):
        with pytest.raises(ValueError):
            normal_cdf(math.inf, 0.0)


class TestUpperIndicatorLimit:
    def test_zero_ambiguity_reduces_to_normal_probability(self):
        iv = interval(0.0, 0.0)
        got = upper_indicator_limit(iv, -1.959964, 1.959964)
        assert got == pytest.approx(0.95, abs=1e-6)

    def test_symmetric_interval_branch_identity(self):
        # at b = -a both branch formulas coincide exactly
        iv = interval(-0.3, 0.3)
        kappa = 0.3
        a, b = -1.2, 1.2
        branch_geq = normal_cdf(0.0, kappa - a) - math.exp(-kappa * (b - a)) * normal_cdf(0.0, kappa - b)
        branch_lt = normal_cdf(0.0, b + kappa) - math.exp(-kappa * (b - a)) * normal_cdf(0.0, a + kappa)
        assert branch_geq == branch_lt
        assert upper_indicator_limit(iv, a, b) == pytest.approx(branch_geq, abs=1e-15)

    def test_frozen_reference_value(self):
        # confirmed independently by integrating the reflected density
        got = upper_indicator_limit(interval(-0.3, 0.3), -1.0, 1.0)
        assert got == pytest.approx(0.770407047562559, abs=1e-12)

    def test_bad_interval(self):
        with pytest.raises(BadInterval):
            upper_indicator_limit(interval(-0.3, 0.3), 1.0, 1.0)

    @given(
        kappa=st.floats(min_value=0.0, max_value=1.0),
        a=st.floats(min_value=-3.0, max_value=1.0),
        width=st.floats(min_value=0.1, max_value=3.0),
        bump=st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_monotone_in_endpoints_and_ambiguity(self, kappa, a, width, bump):
        iv = interval(-kappa, kappa)
        b = a + width
        base = upper_indicator_limit(iv, a, b)
        assert 0.0 <= base <= 1.0
        assert upper_indicator_limit(iv, a, b + bump) >= base - 1e-12
        assert upper_indicator_limit(iv, a - bump, b) >= base - 1e-12
        wider = interval(-kappa - bump, kappa + bump)
        assert upper_indicator_limit(wider, a, b) >= base - 1e-12


class TestLowerIndicatorLimit:
    def test_zero_ambiguity_sides_coincide(self):
        iv = interval(0.0, 0.0)
        a, b = -0.7, 1.1
        lo = lower_indicator_limit(iv, a, b)
        up = upper_indicator_limit(iv, a, b)
        assert lo == pytest.approx(up, abs=1e-15)
        assert lo == pytest.approx(normal_cdf(0, b) - normal_cdf(0, a), abs=1e-14)

    def test_frozen_reference_value(self):
        got = lower_indicator_limit(interval(-0.3, 0.3), -1.0, 1.0)
        assert got == pytest.approx(0.5816543649265746, abs=1e-12)

    @given(
        kappa=st.floats(min_value=0.01, max_value=1.0),
        a=st.floats(min_value=-3.0, max_value=1.0),
        width=st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_ordering(self, kappa, a, width):
        iv = interval(-kappa, kappa)
        b = a + width
        lo = lower_indicator_limit(iv, a, b)
        up = upper_indicator_limit(iv, a, b)
        assert 0.0 <= lo <= up <= 1.0

    def test_strict_ordering_under_ambiguity(self):
        iv = interval(-0.3, 0.3)
        assert lower_indicator_limit(iv, -1, 1) < upper_indicator_limit(iv, -1, 1)


class TestOneSidedLimit:
    def test_far_right_endpoint_saturates(self):
        iv = interval(-0.3, 0.3)
        assert one_sided_limit(iv, 40.0, "left_tail", "upper") == pytest.approx(1.0)

    def test_two_sided_left_limit_consistency(self):
        iv = interval(-0.3, 0.3)
        wide = upper_indicator_limit(iv, -1e8, 0.8)
        assert wide == pytest.approx(one_sided_limit(iv, 0.8, "left_tail", "upper"), abs=1e-12)
        assert upper_indicator_limit(iv, -math.inf, 0.8) == one_sided_limit(
            iv, 0.8, "left_tail", "upper"
        )

    def test_left_tail_value(self):
        got = one_sided_limit(interval(-0.3, 0.3), 0.0, "left_tail", "upper")
        assert got == pytest.approx(0.6179, abs=1e-4)

    def test_sides_swap_means(self):
        iv = interval(-0.3, 0.3)
        assert one_sided_limit(iv, 0.5, "left_tail", "upper") == normal_cdf(-0.3, 0.5)
        assert one_sided_limit(iv, 0.5, "left_tail", "lower") == normal_cdf(0.3, 0.5)
        up = one_sided_limit(iv, 0.5, "right_tail", "upper")
        assert up == pytest.approx(1.0 - normal_cdf(0.3, 0.5), abs=1e-14)


class TestMonotoneReduction:
    def test_left_indicator(self):
        iv = interval(-0.3, 0.3)
        got = monotone_reduction(TerminalFunction.left(0.5), iv)
        assert got == pytest.approx(normal_cdf(-0.3, 0.5), abs=1e-9)

    def test_constant(self):
        # both endpoints infinite, sharp or smoothed: the cdf is read at +inf
        payoffs = [TerminalFunction.indicator(-math.inf, math.inf)]
        payoffs += [TerminalFunction.smoothed_indicator(-math.inf, math.inf, h)
                    for h in (0.05, 1.0, 2.0)]
        for phi in payoffs:
            for lo, hi in ((-0.3, 0.3), (0.2, 1.7), (-2.5, -2.5)):
                assert monotone_reduction(phi, interval(lo, hi)) == 1.0

    def test_two_sided_rejected(self):
        with pytest.raises(NotMonotone):
            monotone_reduction(
                TerminalFunction.smoothed_indicator(-1, 1, 0.05), interval(-0.3, 0.3)
            )

    @pytest.mark.parametrize("a, b", [("0.001", "0.002"), (40, 50)])
    def test_two_finite_endpoints_rejected(self, a, b):
        # both payoffs rise and fall, however narrow or far from the origin
        with pytest.raises(NotMonotone):
            monotone_reduction(TerminalFunction.indicator(a, b), interval(-0.3, 0.3))

    def test_direction_from_the_infinite_endpoint(self):
        iv = interval(-0.2, 0.5)
        left = monotone_reduction(TerminalFunction.left(0.3), iv)
        right = monotone_reduction(TerminalFunction.right(0.3), iv)
        assert left == pytest.approx(normal_cdf(-0.2, 0.3), abs=1e-9)
        assert right == pytest.approx(1.0 - normal_cdf(0.5, 0.3), abs=1e-9)
        assert monotone_reduction(TerminalFunction.indicator(-math.inf, math.inf), iv) == 1.0

    def test_sharp_payoffs_are_the_one_sided_limit(self):
        # h = 0 divides by sqrt(1) = 1.0, so the value is the sharp limit's float
        rng = np.random.default_rng(30)
        for _ in range(200):
            center, kappa, a, b = (float(v) for v in rng.uniform((-2, 0, -4, -4), (2, 1, 4, 4)))
            iv = interval(center - kappa, center + kappa)
            assert monotone_reduction(TerminalFunction.left(b), iv) == one_sided_limit(
                iv, b, "left_tail", "upper")
            assert monotone_reduction(TerminalFunction.right(a), iv) == one_sided_limit(
                iv, a, "right_tail", "upper")

    @pytest.mark.parametrize("h", [0.05, 0.3, 2.0])
    def test_smoothed_payoffs_match_quadrature(self, h):
        rng = np.random.default_rng(31)
        for _ in range(10):
            center, kappa, end = (float(v) for v in rng.uniform((-1, 0, -3), (1, 0.6, 3)))
            iv = interval(center - kappa, center + kappa)
            falls = TerminalFunction.smoothed_indicator(-math.inf, end, h)
            rises = TerminalFunction.smoothed_indicator(end, math.inf, h)
            assert monotone_reduction(falls, iv) == pytest.approx(
                gauss_integral(falls, iv.mu_lower), abs=1e-12)
            assert monotone_reduction(rises, iv) == pytest.approx(
                gauss_integral(rises, iv.mu_upper), abs=1e-12)

    def test_pde_names_are_the_closed_form_ones(self):
        assert pde.monotone_reduction is closed_form.monotone_reduction
        assert pde.NotMonotone is closed_form.NotMonotone


class TestShiftReduce:
    def test_symmetric_interval(self):
        assert shift_reduce(interval(-0.3, 0.3)) == (0.3, 0.0)

    def test_offcenter_interval_and_identity(self):
        kappa, c = shift_reduce(interval(0.0, 0.6))
        assert (kappa, c) == (0.3, 0.3)
        left = upper_indicator_limit(interval(0.0, 0.6), -0.5, 1.5)
        right = upper_indicator_limit(interval(-0.3, 0.3), -0.5 - c, 1.5 - c)
        assert left == right

    def test_degenerate_interval(self):
        assert shift_reduce(interval(0.4, 0.4)) == (0.0, 0.4)


class TestReflectedDensity:
    @pytest.mark.parametrize("x,kappa", [(0.0, 0.3), (-0.8, 0.5), (1.2, 0.1)])
    def test_unit_mass(self, x, kappa):
        lo, _ = quad(lambda z: reflected_density(x, kappa, 1.0, z), -30, 0, limit=200)
        hi, _ = quad(lambda z: reflected_density(x, kappa, 1.0, z), 0, 30, limit=200)
        assert lo + hi == pytest.approx(1.0, abs=1e-6)

    def test_interval_integral_matches_closed_form(self):
        a, b, kappa = -1.0, 0.4, 0.3
        c = -(a + b) / 2.0
        half = (b - a) / 2.0
        got, _ = quad(lambda z: reflected_density(c, kappa, 1.0, z), -half, half,
                      points=[0.0], limit=200, epsabs=1e-12)
        want = upper_indicator_limit(interval(-kappa, kappa), a, b)
        assert got == pytest.approx(want, abs=1e-8)

    def test_vanishing_drift_recovers_gaussian_kernel(self):
        for z in (-1.5, 0.0, 0.7):
            got = reflected_density(0.3, 1e-12, 1.0, z)
            want = math.exp(-0.5 * (0.3 - z) ** 2) / math.sqrt(2 * math.pi)
            assert got == pytest.approx(want, abs=1e-9)

    def test_array_evaluation(self):
        z = np.linspace(-3, 3, 11)
        out = reflected_density(0.0, 0.3, 0.5, z)
        assert out.shape == z.shape
        assert np.all(out >= 0.0)

    def test_bad_time(self):
        with pytest.raises(BadTime):
            reflected_density(0.0, 0.3, 0.0, 1.0)


class TestIndicatorLimitRecord:
    def test_detail_fields(self):
        detail = indicator_limit_detail(interval(-0.3, 0.3), -1.0, 1.0, "upper")
        assert detail["branch"] == "a+b>=mu_sum"
        assert detail["kappa"] == 0.3
        assert detail["center"] == 0.0
        assert detail["value"] == upper_indicator_limit(interval(-0.3, 0.3), -1, 1)

    @pytest.mark.parametrize("side, fn", [("upper", upper_indicator_limit),
                                          ("lower", lower_indicator_limit)])
    def test_value_is_the_side_limit(self, side, fn):
        iv = interval(-0.2, 0.7)
        for a, b in ((-1.0, 1.0), (-math.inf, 0.3), (0.3, math.inf), (-math.inf, math.inf)):
            assert indicator_limit_detail(iv, a, b, side)["value"] == fn(iv, a, b)
        assert indicator_limit_detail(iv, -1.0, 0.3, side)["branch"] == "a+b<mu_sum"
        assert indicator_limit_detail(iv, -math.inf, 0.3, side)["branch"] == "one_sided"

    def test_branch_at_a_rounded_tie(self):
        # a + b = mu_lo + mu_hi in decimals, and -0.4 + 2.33 >= 0.6 + 1.33 in
        # floats, but the shift-reduced sum the value is computed from is
        # -2.2e-16: the value comes from the a + b < mu_sum formula
        iv = interval(0.6, 1.33)
        _, c = shift_reduce(iv)
        assert (-0.4 - c) + (2.33 - c) < 0.0 and -0.4 + 2.33 >= 0.6 + 1.33
        detail = indicator_limit_detail(iv, -0.4, 2.33)
        assert detail["branch"] == "a+b<mu_sum"
        assert detail["value"] == upper_indicator_limit(iv, -0.4, 2.33)

    def test_invalid_side(self):
        with pytest.raises(ValueError, match="unknown side"):
            indicator_limit_detail(interval(0, 0), -1.0, 1.0, "middle")

    def test_invalid_interval(self):
        with pytest.raises(BadInterval):
            indicator_limit_detail(interval(0, 0), 1.0, 1.0)
