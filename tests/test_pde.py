import math

import numpy as np
import pytest
from scipy.integrate import quad

from ambiclt import pde
from ambiclt.closed_form import lower_indicator_limit, monotone_reduction, upper_indicator_limit
from ambiclt.measures import interval
from ambiclt.pde import (
    GeneratorSpec,
    OutOfDomain,
    PdeGrid,
    UnstableGrid,
    dpp_check,
    epsilon_extrapolate,
    solve_g_expectation,
    solve_g_expectation_profile,
)
from ambiclt.terminal import TerminalFunction

# coarse grid: keeps most tests fast, tight checks use the default grid
COARSE = PdeGrid(-8.0, 8.0, 801, 500)
EPS_SWEEP = [0.2, 0.1, 0.05, 0.025]


def gauss_integral(phi: TerminalFunction, mu: float) -> float:
    """E phi(mu + Z) by adaptive quadrature, split at the finite endpoints."""
    val, _ = quad(
        lambda t: phi(t) * math.exp(-0.5 * (t - mu) ** 2) / math.sqrt(2 * math.pi),
        mu - 12, mu + 12, points=[p for p in (phi.a, phi.b) if math.isfinite(p)] or None,
        limit=200, epsabs=1e-13, epsrel=1e-13,
    )
    return val


class TestGeneratorSpec:
    def test_vanishes_at_zero_exactly(self):
        gen = GeneratorSpec(0.3, 0.05)
        assert gen.g(np.array([0.0]))[0] == 0.0
        assert type(gen.g(0.0)) is np.float64 and gen.g(0.0) == 0.0

    def test_smoothing_gap_bounded(self):
        z = np.linspace(-5, 5, 101)
        kappa, eps = 0.4, 0.1
        sharp = GeneratorSpec(kappa, 0.0).g(z)
        smooth = GeneratorSpec(kappa, eps).g(z)
        gap = sharp - smooth
        assert np.all(gap >= -1e-15)
        assert np.all(gap <= kappa * eps + 1e-15)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(-0.1, 0.0)
        with pytest.raises(ValueError):
            GeneratorSpec(0.1, -0.5)

    @pytest.mark.parametrize("kappa", [0.3, 2.0])
    @pytest.mark.parametrize("eps", [0.0, 1e-200, 1e-140, 0.025, 0.2, 1.0])
    def test_contract_over_the_float_range(self, kappa, eps):
        mags = np.logspace(-150, 150, 601)
        z = np.concatenate([-mags[::-1], [0.0], mags])
        g = GeneratorSpec(kappa, eps).g(z)
        assert g[len(mags)] == 0.0
        assert np.all(g >= 0.0) and np.all(g <= kappa * np.abs(z))
        gap = np.abs(g - kappa * (np.hypot(z, eps) - eps))
        assert np.all(gap <= 4 * np.spacing(kappa * np.hypot(z, eps)))
        if eps == 0.0:
            assert np.array_equal(g, kappa * np.abs(z))


class TestGrid:
    def test_must_straddle_zero(self):
        with pytest.raises(ValueError):
            PdeGrid(0.5, 10.0, 101, 100)

    def test_default_shape(self):
        g = PdeGrid.default()
        assert (g.nx, g.nt) == (2001, 2000)
        assert g.x[0] == -10.0 and g.x[-1] == 10.0


class TestSolve:
    def test_constant_terminal_is_fixed_point(self):
        got = pde._solve_profiles(np.full(COARSE.nx, 2.5), 0.4, [0.05], COARSE, 1.0, COARSE.nt)
        assert pde._interp(COARSE, got[:, 0], 0.0) == pytest.approx(2.5, abs=1e-12)

    def test_heat_equation_matches_quadrature(self):
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        got = solve_g_expectation(phi, GeneratorSpec(0.0, 0.05), COARSE, 0.0)
        assert got == pytest.approx(gauss_integral(phi, 0.0), abs=2e-3)

    def test_probe_point_off_grid_node(self):
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        mid = solve_g_expectation(phi, GeneratorSpec(0.0, 0.05), COARSE, 0.005)
        lo = solve_g_expectation(phi, GeneratorSpec(0.0, 0.05), COARSE, 0.0)
        hi = solve_g_expectation(phi, GeneratorSpec(0.0, 0.05), COARSE, 0.02)
        assert min(lo, hi) - 1e-9 <= mid <= max(lo, hi) + 1e-9

    def test_out_of_domain(self):
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        with pytest.raises(OutOfDomain):
            solve_g_expectation(phi, GeneratorSpec(0.0, 0.05), COARSE, 9.5)

    def test_unstable_grid_rejected(self):
        grid = PdeGrid(-8.0, 8.0, 801, 5)  # dt = 0.2, dx = 0.02
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        with pytest.raises(UnstableGrid):
            solve_g_expectation(phi, GeneratorSpec(2.0, 0.05), grid, 0.0)

    def test_sharp_indicator_is_mollified_automatically(self):
        sharp = TerminalFunction.indicator(-1, 1)
        smooth = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        gen = GeneratorSpec(0.3, 0.05)
        a = solve_g_expectation(sharp, gen, COARSE, 0.0)
        b = solve_g_expectation(smooth, gen, COARSE, 0.0)
        assert a == b


class TestAgainstClosedForm:
    def test_extrapolated_solution_matches_indicator_limit(self):
        kappa = 0.3
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        res = epsilon_extrapolate(phi, kappa, PdeGrid.default(), EPS_SWEEP)
        want = upper_indicator_limit(interval(-kappa, kappa), -1, 1)
        assert res.extrapolated == pytest.approx(want, abs=5e-3)

    def test_lower_formula_against_complement_solve(self):
        # the general lower-expectation formula is validated, not assumed:
        # lower[a,b] = 1 - upper value of the mollified complement
        grid = PdeGrid.default()
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.02)
        # epsilon_extrapolate's extrapolant from the two smallest eps; the
        # columns are marched independently, so the others are not solved
        e1, e2 = EPS_SWEEP[-2:]
        profiles = pde._solve_profiles(1.0 - phi.sample(grid.x), 0.3, [e1, e2], grid, 1.0, grid.nt)
        v1, v2 = (pde._interp(grid, profiles[:, j], 0.0) for j in (0, 1))
        extrapolated = v2 + (v2 - v1) * e2 / (e1 - e2)
        want = lower_indicator_limit(interval(-0.3, 0.3), -1, 1)
        assert 1.0 - extrapolated == pytest.approx(want, abs=5e-3)


class TestEpsExtrapolation:
    def test_zero_kappa_sequence_constant(self):
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        res = epsilon_extrapolate(phi, 0.0, COARSE, EPS_SWEEP)
        assert len(set(res.values)) == 1
        assert res.extrapolated == res.values[0]

    def test_zero_kappa_marches_one_column(self, monkeypatch):
        # the generator is identically zero: every eps gives the one-entry solve
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        single = epsilon_extrapolate(phi, 0.0, COARSE, [0.3])
        calls = []
        march = pde._march

        def spy(v0, kappa, eps, *args):
            calls.append((args[-1], eps.tolist()))
            return march(v0, kappa, eps, *args)

        monkeypatch.setattr(pde, "_march", spy)
        res = epsilon_extrapolate(phi, 0.0, COARSE, EPS_SWEEP)
        assert calls == [("centered", [0.2])]
        assert res.values == single.values * len(EPS_SWEEP)
        assert res.extrapolated == single.extrapolated

    def test_values_rise_as_eps_falls(self):
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        res = epsilon_extrapolate(phi, 0.4, COARSE, EPS_SWEEP)
        assert all(b >= a - 1e-12 for a, b in zip(res.values, res.values[1:]))
        assert res.extrapolated >= res.values[-1] - 1e-12

    def test_sequence_must_decrease(self):
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        with pytest.raises(ValueError):
            epsilon_extrapolate(phi, 0.3, COARSE, [0.1, 0.2])


class TestDiffusionSolve:
    # epsilon_extrapolate on the default grid, indicator [-1, 1] smoothed at
    # h, as the general-LU march with the hypot generator gave it: (value
    # extrapolated to eps = 0, values along EPS_SWEEP)
    PINNED = {
        (0.0, 0.05): (0.6821495928861459, (0.6821495928861459, 0.6821495928861459,
                                           0.6821495928861459, 0.6821495928861459)),
        (0.0, 0.02): (0.6826571982273363, (0.6826571982273363, 0.6826571982273363,
                                           0.6826571982273363, 0.6826571982273363)),
        (0.3, 0.05): (0.7685349199725818, (0.7392426479402364, 0.7507297983047893,
                                           0.7586618792636505, 0.7635983996181162)),
        (0.3, 0.02): (0.7691624150543885, (0.7399280262783621, 0.7513927354520031,
                                           0.7593089366794097, 0.7642356758668991)),
        (0.6, 0.05): (0.8379644564414741, (0.7871345945438217, 0.8067238523036441,
                                           0.8204311187210578, 0.8291977875812659)),
        (0.6, 0.02): (0.8386377545222357, (0.7879383947158433, 0.8074756979920341,
                                           0.8211474627062656, 0.8298926086142506)),
    }

    @pytest.mark.parametrize("nx", [41, 201])
    def test_one_step_equals_the_dense_unhalved_solve(self, nx):
        grid = PdeGrid(-10.0, 10.0, nx, 20)
        kappa, eps, dx, dt = 0.6, 0.05, grid.dx, 1.0 / grid.nt
        # nonzero at both ends, so the boundary rows count
        v0 = (TerminalFunction.smoothed_indicator(-1, 1, 0.5).sample(grid.x)
              + 0.3 * np.cos(grid.x))
        got = pde._solve_profiles(v0, kappa, [eps], grid, dt, 1)[:, 0]
        r = dt / (dx * dx)
        a = (np.diag(np.full(nx, 1.0 + r)) + np.diag(np.full(nx - 1, -0.5 * r), 1)
             + np.diag(np.full(nx - 1, -0.5 * r), -1))
        a[0, 1] = a[-1, -2] = -r  # zero-slope ghost nodes
        grad = np.zeros(nx)
        grad[1:-1] = (v0[2:] - v0[:-2]) / (2.0 * dx)
        want = np.linalg.solve(a, v0 + dt * kappa * (np.hypot(grad, eps) - eps))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("kappa, h", list(PINNED))
    def test_default_grid_extrapolations_are_pinned(self, kappa, h):
        phi = TerminalFunction.smoothed_indicator(-1, 1, h)
        res = epsilon_extrapolate(phi, kappa, PdeGrid.default(), EPS_SWEEP)
        extrapolated, values = self.PINNED[kappa, h]
        assert res.extrapolated == pytest.approx(extrapolated, rel=0, abs=1e-12)
        assert res.values == pytest.approx(values, rel=0, abs=1e-12)


class TestUpwindFallback:
    # kappa = 2 on 41 nodes: the centered march breaks the max principle in
    # the eps = 0.05 column of this sweep but not in the eps = 0.2 column
    GRID = PdeGrid(-10.0, 10.0, 41, 20)
    PHI = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
    SWEEP = [0.2, 0.05]

    def test_sweep_values_equal_single_solves_bit_for_bit(self):
        res = epsilon_extrapolate(self.PHI, 2.0, self.GRID, self.SWEEP)
        singles = tuple(solve_g_expectation(self.PHI, GeneratorSpec(2.0, e), self.GRID, 0.0)
                        for e in self.SWEEP)
        assert res.values == singles

    def test_only_the_violating_column_is_re_marched_upwind(self, monkeypatch):
        calls = []
        march = pde._march

        def spy(v0, kappa, eps, *args):
            block, ok = march(v0, kappa, eps, *args)
            calls.append((args[-1], eps.tolist(), ok.tolist()))
            return block, ok

        monkeypatch.setattr(pde, "_march", spy)
        epsilon_extrapolate(self.PHI, 2.0, self.GRID, self.SWEEP)
        assert calls == [("centered", [0.2, 0.05], [True, False]),
                         ("upwind", [0.05], [True])]

    def test_failed_upwind_re_march_is_an_unstable_grid(self, monkeypatch):
        march = pde._march

        def upwind_fails(v0, kappa, eps, *args):
            block, ok = march(v0, kappa, eps, *args)
            return block, ok & (args[-1] != "upwind")

        monkeypatch.setattr(pde, "_march", upwind_fails)
        with pytest.raises(UnstableGrid, match="eps = 0.05"):
            epsilon_extrapolate(self.PHI, 2.0, self.GRID, self.SWEEP)


class TestDppCheck:
    PROBES = [-1.5, -0.5, 0.0, 0.5, 1.5]

    def test_degenerate_split_is_bit_identical(self):
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        disc = dpp_check(phi, GeneratorSpec(0.3, 0.05), COARSE, 1, 1, self.PROBES)
        assert disc == 0.0

    def test_heat_semigroup(self):
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        disc = dpp_check(phi, GeneratorSpec(0.0, 0.05), PdeGrid.default(), 4, 2, self.PROBES)
        assert disc <= 1e-4

    def test_reference_case(self):
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        disc = dpp_check(phi, GeneratorSpec(0.3, 0.05), PdeGrid.default(), 4, 2, self.PROBES)
        assert disc <= 5e-4

    def test_step_index_validated(self):
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        with pytest.raises(ValueError):
            dpp_check(phi, GeneratorSpec(0.3, 0.05), COARSE, 4, 0, self.PROBES)


class TestStructuralProperties:
    def test_comparison_ordering(self):
        gen = GeneratorSpec(0.3, 0.05)
        big = solve_g_expectation_profile(
            TerminalFunction.smoothed_indicator(-1, 1, 0.05), gen, COARSE
        )
        small = solve_g_expectation_profile(
            TerminalFunction.smoothed_indicator(-0.5, 0.5, 0.05), gen, COARSE
        )
        assert np.all(small <= big + 1e-10)

    def test_translation_homogeneity(self):
        gen = GeneratorSpec(0.3, 0.05)
        phi = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        base = solve_g_expectation_profile(phi, gen, COARSE)
        lifted = pde._solve_profiles(phi.sample(COARSE.x) + 4.0, gen.kappa, [gen.epsilon],
                                     COARSE, 1.0, COARSE.nt)[:, 0]
        assert np.max(np.abs(lifted - base - 4.0)) <= 1e-11

    def test_symmetry_propagates(self):
        gen = GeneratorSpec(0.3, 0.05)
        prof = solve_g_expectation_profile(
            TerminalFunction.smoothed_indicator(-1, 1, 0.05), gen, COARSE
        )
        assert np.max(np.abs(prof - prof[::-1])) <= 1e-10

    def test_gradient_sign_propagates(self):
        gen = GeneratorSpec(0.3, 0.05)
        prof = solve_g_expectation_profile(
            TerminalFunction.smoothed_indicator(-1, 1, 0.05), gen, COARSE
        )
        g = np.gradient(prof, COARSE.x)
        bad = (np.sign(g) * np.sign(COARSE.x) > 0) & (np.abs(g) > 1e-12)
        assert not np.any(bad)

    def test_values_within_terminal_bounds(self):
        gen = GeneratorSpec(0.5, 0.05)
        prof = solve_g_expectation_profile(
            TerminalFunction.smoothed_indicator(-1, 1, 0.05), gen, COARSE
        )
        assert prof.min() >= -1e-9 and prof.max() <= 1.0 + 1e-9


class TestMonotoneReduction:
    def test_increasing_case_matches_solver(self):
        iv = interval(-0.3, 0.3)
        phi = TerminalFunction.smoothed_indicator(0.2, math.inf, 0.05)
        want = monotone_reduction(phi, iv)
        res = epsilon_extrapolate(phi, 0.3, PdeGrid.default(), EPS_SWEEP)
        assert res.extrapolated == pytest.approx(want, abs=5e-3)


class TestShiftEquivariance:
    # a payoff moved by t, read at the moved point, has the same value; each
    # eps profile is checked, so their eps-extrapolant is too
    PROBES = (-2.0, -1.0, -0.5, 0.0, 0.3, 1.0, 1.5)

    @pytest.mark.parametrize("kappa", [0.0, 0.3, 0.6])
    def test_moved_payoff_read_at_the_moved_point(self, kappa):
        def values(t, eps):
            phi = TerminalFunction.smoothed_indicator(-1 + t, 1 + t, 0.05)
            prof = solve_g_expectation_profile(phi, GeneratorSpec(kappa, eps), COARSE)
            return np.array([pde._interp(COARSE, prof, x0 + t) for x0 in self.PROBES])

        for eps in EPS_SWEEP[-2:]:
            base = values(0.0, eps)
            for t in (0.5, -0.5, 1.0, -0.02):  # multiples of dx = 0.02
                assert np.max(np.abs(values(t, eps) - base)) <= 1e-12, (eps, t)
            # off the grid the payoff is sampled at other offsets from the nodes
            assert np.max(np.abs(values(0.123, eps) - base)) <= 5e-5, eps
