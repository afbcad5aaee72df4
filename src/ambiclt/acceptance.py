"""The acceptance matrix: oracle- and property-based verification gates.

Each criterion function returns a :class:`CriterionResult` with the measured
quantities in ``detail``; tolerances are fixed here, not calibrated at run
time.  The suite is exposed both to pytest (``tests/test_acceptance.py``)
and to the command line (``ambiclt report --suite acceptance``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

from . import closed_form as cf
from . import hyptest, pde, worst_case
from .measures import DiscreteMeasure, MeasureSet, coin_example, interval, validate_measure_set
from .statistics import SwitchRule
from .terminal import TerminalFunction

_SEED = 20260808


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    description: str
    passed: bool
    detail: str
    runtime: float


def _coin():
    return coin_example("3/5", "3/10")


def _std_phi(x: float) -> float:
    return cf.normal_cdf(0.0, x)


# ---------------------------------------------------------------------------


def _c01_closed_form_reduction():
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(100):
        a, b = np.sort(rng.uniform(-4.0, 4.0, size=2))
        if b - a < 1e-3:
            b = a + 1e-3
        got = cf.upper_indicator_limit(interval(0.0, 0.0), float(a), float(b))
        want = _std_phi(float(b)) - _std_phi(float(a))
        worst = max(worst, abs(got - want))
    return worst <= 1e-12, f"max |upper - (Phi(b)-Phi(a))| = {worst:.3e} (tol 1e-12)"


def _c02_branch_continuity():
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    for _ in range(50):
        mu_lo = float(rng.uniform(-1.0, 0.5))
        mu_hi = float(mu_lo + rng.uniform(0.0, 1.0))
        half = float(rng.uniform(0.05, 3.0))
        kappa = (mu_hi - mu_lo) / 2.0
        # boundary point after shift reduction: a' = -half, b' = half
        a, b = -half, half
        rate = -kappa * (b - a)
        branch_geq = _std_phi(kappa - a) - math.exp(rate) * _std_phi(kappa - b)
        branch_lt = _std_phi(b + kappa) - math.exp(rate) * _std_phi(a + kappa)
        worst = max(worst, abs(branch_geq - branch_lt))
    return worst <= 1e-10, f"max branch mismatch at a+b = mu_sum: {worst:.3e} (tol 1e-10)"


def _c03_shift_identity():
    rng = np.random.default_rng(_SEED + 2)
    worst = 0.0
    for _ in range(100):
        mu_lo = float(rng.uniform(-1.5, 1.0))
        mu_hi = float(mu_lo + rng.uniform(0.0, 1.5))
        a = float(rng.uniform(-4.0, 2.0))
        b = float(a + rng.uniform(0.05, 4.0))
        iv = interval(mu_lo, mu_hi)
        d = mu_hi + mu_lo
        width = mu_hi - mu_lo
        # general-interval formulas evaluated directly, no shift
        if a + b >= d:
            up = _std_phi(mu_hi - a) - math.exp(-width * (b - a) / 2.0) * _std_phi(mu_hi - b)
            lo = _std_phi(mu_lo - a) - math.exp(width * (b - a) / 2.0) * _std_phi(mu_lo - b)
        else:
            up = _std_phi(b - mu_lo) - math.exp(-width * (b - a) / 2.0) * _std_phi(a - mu_lo)
            lo = _std_phi(b - mu_hi) - math.exp(width * (b - a) / 2.0) * _std_phi(a - mu_hi)
        clamp = lambda v: min(1.0, max(0.0, v))
        worst = max(worst, abs(cf.upper_indicator_limit(iv, a, b) - clamp(up)))
        worst = max(worst, abs(cf.lower_indicator_limit(iv, a, b) - clamp(lo)))
    return worst <= 1e-12, f"max |direct - shift-reduced| = {worst:.3e} (tol 1e-12)"


def _c04_density_consistency():
    rng = np.random.default_rng(_SEED + 3)
    worst_mass = 0.0
    worst_match = 0.0
    for _ in range(20):
        kappa = float(rng.uniform(0.05, 0.8))
        a = float(rng.uniform(-3.0, 1.0))
        b = float(a + rng.uniform(0.1, 3.0))
        c = -(a + b) / 2.0
        lo_mass, _ = scipy.integrate.quad(lambda z: cf.reflected_density(c, kappa, 1.0, z), -30.0, 0.0,
                          limit=200, epsabs=1e-10)
        hi_mass, _ = scipy.integrate.quad(lambda z: cf.reflected_density(c, kappa, 1.0, z), 0.0, 30.0,
                          limit=200, epsabs=1e-10)
        worst_mass = max(worst_mass, abs(lo_mass + hi_mass - 1.0))
        half = (b - a) / 2.0
        pts = [0.0] if -half < 0.0 < half else None
        inside, _ = scipy.integrate.quad(lambda z: cf.reflected_density(c, kappa, 1.0, z), -half, half,
                         points=pts, limit=200, epsabs=1e-11)
        want = cf.upper_indicator_limit(interval(-kappa, kappa), a, b)
        worst_match = max(worst_match, abs(inside - want))
    ok = worst_mass <= 1e-6 and worst_match <= 1e-8
    return ok, (f"max |mass-1| = {worst_mass:.3e} (tol 1e-6), "
                f"max |integral - closed form| = {worst_match:.3e} (tol 1e-8)")


def _c05_pde_vs_closed_form():
    grid = pde.PdeGrid.default()
    eps_sweep = [0.2, 0.1, 0.05, 0.025]
    report = []
    ok = True
    for kappa in (0.0, 0.3, 0.6):
        t0 = time.perf_counter()
        ref = cf.upper_indicator_limit(interval(-kappa, kappa), -1.0, 1.0)
        gaps = []
        for h in (0.05, 0.02):
            phi = TerminalFunction.smoothed_indicator(-1.0, 1.0, h)
            res = pde.epsilon_extrapolate(phi, kappa, grid, eps_sweep)
            gaps.append(abs(res.extrapolated - ref))
        elapsed = time.perf_counter() - t0
        ok = ok and max(gaps) <= 5e-3 and elapsed < 30.0
        report.append(f"kappa={kappa}: gaps={[f'{g:.1e}' for g in gaps]} ({elapsed:.1f}s)")
    return ok, "; ".join(report) + " (tol 5e-3, <30s per kappa)"


def _c06_dpp_self_check():
    grid = pde.PdeGrid.default()
    phi = TerminalFunction.smoothed_indicator(-1.0, 1.0, 0.05)
    probes = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    disc = pde.dpp_check(phi, pde.GeneratorSpec(0.3, 0.05), grid, 4, 2, probes)
    return disc <= 5e-4, f"composition discrepancy = {disc:.3e} (tol 5e-4)"


def _c07_oracle_equivalence():
    L = _coin()
    iv = validate_measure_set(L)
    rule = SwitchRule(0.0, iv)
    phi = TerminalFunction.indicator(-1, 1)
    checks = 0
    for n in range(1, 7):
        cases = [
            ("clt", dict(), dict()),
            ("deviation", dict(), dict()),
            ("lln", dict(), dict()),
            ("scaled", dict(alpha="1/2", beta=2), dict(alpha="1/2", beta=2)),
            ("special", dict(rule=rule), dict(rule=rule)),
            ("tilde", dict(rule=rule, minimize=True), dict(rule=rule, minimize=True)),
        ]
        for variant, dp_kw, en_kw in cases:
            dp = worst_case._dp_value(L, phi, n, variant, value_mode="exact", **dp_kw)
            en = worst_case.enumerate_worst_case(L, phi, n, variant, **en_kw)
            if dp != en:
                return False, f"{variant} n={n}: dp={dp} != enum={en}"
            checks += 1
    return True, f"{checks} exact dp == enumeration identities (rational mode)"


def _c08_clt_convergence_trend():
    L = _coin()
    iv = validate_measure_set(L)
    rule = SwitchRule(0.0, iv)
    phi = TerminalFunction.indicator(-1, 1)
    ref = cf.upper_indicator_limit(iv, -1.0, 1.0)
    gaps = {}
    for n in (10, 20, 40):
        v = float(worst_case.sup_dp_special(L, phi, n, rule, value_mode="float"))
        gaps[n] = abs(v - ref)
    decreasing = gaps[10] > gaps[20] > gaps[40]
    small = gaps[40] <= 0.05
    detail = (f"gaps: n=10 {gaps[10]:.4f}, n=20 {gaps[20]:.4f}, n=40 {gaps[40]:.4f}; "
              f"decreasing={decreasing}, gap(40)<=0.05 is {small}")
    return decreasing and small, detail


def _c09_normal_limit():
    L = _coin()
    phi = TerminalFunction.smoothed_indicator(-1.0, 1.0, 0.05)
    ref, _ = scipy.integrate.quad(lambda t: phi(t) * math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                  -12.0, 12.0, points=[-1.0, 1.0], limit=200)
    v = float(worst_case.sup_dp_deviation(L, phi, 40, value_mode="float"))
    gap = abs(v - ref)
    return gap <= 0.05, f"deviation n=40: {v:.4f} vs quadrature {ref:.4f}, gap {gap:.4f} (tol 0.05)"


def _c10_lln_saturation():
    L = _coin()
    hit = float(worst_case.sup_dp_lln(L, TerminalFunction.indicator(-1, 1), 400,
                                      value_mode="float"))
    miss = float(worst_case.sup_dp_lln(L, TerminalFunction.indicator("1/2", 1), 400,
                                       value_mode="float"))
    ok = hit >= 0.95 and miss <= 0.05
    return ok, f"intersecting {hit:.4f} (>=0.95), disjoint {miss:.4f} (<=0.05)"


def _c11_mc_sandwich():
    L = _coin()
    iv = validate_measure_set(L)
    rule = SwitchRule(0.0, iv)
    sharp = TerminalFunction.indicator(-1, 1)
    smooth = TerminalFunction.smoothed_indicator(-1.0, 1.0, 0.05)
    configs = [
        ("special", 20, sharp),
        ("clt", 12, sharp),
        ("deviation", 20, smooth),
    ]
    checks = []
    for variant, n, phi in configs:
        dp = float(worst_case._dp_value(L, phi, n, variant, rule=rule, value_mode="float"))
        for k, policy in enumerate(worst_case.builtin_policies(L, rule)):
            est = worst_case.mc_policy_value(
                L, policy, phi, variant, n, 100_000, seed=_SEED + k, rule=rule
            )
            slack = dp + 3.0 * est.stderr - est.estimate
            checks.append(slack)
            if slack < 0:
                return False, (f"{variant} n={n} {policy.label}: estimate "
                               f"{est.estimate:.5f} exceeds dp {dp:.5f} + 3se")
    return True, f"15 policy runs below their dp values (min slack {min(checks):.4f})"


def _c12_hypothesis_calibration():
    spec0 = hyptest.TestSpec(kappa=0.0, sigma=1.0, alpha=0.05)
    a0, b0 = hyptest.calibrate_interval(spec0)
    ok_b = abs(b0 - 1.959964) <= 1e-5
    worst_resid = 0.0
    for kappa in (0.0, 0.1, 0.3):
        spec = hyptest.TestSpec(kappa=kappa, sigma=1.0, alpha=0.05)
        aa, bb = hyptest.calibrate_interval(spec)
        resid = abs(cf.upper_indicator_limit(interval(-kappa, kappa), aa, bb) - 0.95)
        worst_resid = max(worst_resid, resid)
    errors = MeasureSet((DiscreteMeasure((1, -1), ("1/2", "1/2")),))
    rate, _ = hyptest.size_power_simulation(
        errors, spec0, a0, b0, theta_true=0.0, n=400, paths=10_000, seed=_SEED
    )
    ok_rate = abs(rate - 0.95) <= 0.02
    ok = ok_b and worst_resid <= 1e-9 and ok_rate
    return ok, (f"b={b0:.6f} (target 1.959964 +-1e-5), max coverage residual "
                f"{worst_resid:.2e} (tol 1e-9), accept rate {rate:.4f} (0.95 +-0.02)")


def _c13_symmetry_sign_propagation():
    grid = pde.PdeGrid.default()
    worst_sym = 0.0
    violations = 0
    for h in (0.05, 0.02):
        phi = TerminalFunction.smoothed_indicator(-1.0, 1.0, h)
        prof = pde.solve_g_expectation_profile(phi, pde.GeneratorSpec(0.3, 0.05), grid)
        worst_sym = max(worst_sym, float(np.max(np.abs(prof - prof[::-1]))))
        g = np.gradient(prof, grid.x)
        bad = (np.sign(g) * np.sign(grid.x) > 0) & (np.abs(g) > 1e-12)
        violations += int(np.sum(bad))
    ok = worst_sym <= 1e-10 and violations == 0
    return ok, (f"grid symmetry error {worst_sym:.3e} (tol 1e-10), "
                f"gradient sign violations {violations}")


# ---------------------------------------------------------------------------

CRITERIA: list[tuple[int, str, Callable, float]] = [
    (1, "closed-form reduction at zero ambiguity", _c01_closed_form_reduction, 1.0),
    (2, "branch continuity at a+b = mu_sum", _c02_branch_continuity, 1.0),
    (3, "shift-lemma identity", _c03_shift_identity, 1.0),
    (4, "reflected-density consistency", _c04_density_consistency, 10.0),
    (5, "pde matches closed form (h-sweep, eps-extrapolation)", _c05_pde_vs_closed_form, 90.0),
    (6, "dynamic-programming-principle self-check", _c06_dpp_self_check, 60.0),
    (7, "dp equals exhaustive enumeration (rational mode)", _c07_oracle_equivalence, 60.0),
    (8, "switching-statistic convergence trend", _c08_clt_convergence_trend, 300.0),
    (9, "pure-deviation statistic has the normal limit", _c09_normal_limit, 300.0),
    (10, "sample-mean worst case saturates", _c10_lln_saturation, 60.0),
    (11, "monte carlo sandwich under the dp", _c11_mc_sandwich, 120.0),
    (12, "hypothesis calibration, coverage, size", _c12_hypothesis_calibration, 120.0),
    (13, "pde symmetry and gradient-sign propagation", _c13_symmetry_sign_propagation, 30.0),
]


def run_criterion(cid: int) -> CriterionResult:
    entry = next((c for c in CRITERIA if c[0] == cid), None)
    if entry is None:
        raise ValueError(f"no criterion {cid}")
    _, description, fn, budget = entry
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        passed = False
        detail += f"; runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"
    return CriterionResult(cid, description, passed, detail, elapsed)


def run_criteria(ids=None) -> list[CriterionResult]:
    ids = [c[0] for c in CRITERIA] if ids is None else ids
    return [run_criterion(cid) for cid in ids]
