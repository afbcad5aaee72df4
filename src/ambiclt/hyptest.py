"""Robust hypothesis testing under mean-ambiguous errors.

Data follow x_i = theta + y_i with error means only known to lie in
[-kappa, kappa] and known variance.  Calibrating an interval [a, b] so the
worst-case limiting probability that the switching statistic lands in it is
1 - alpha yields the random acceptance region C_n = [M_n - b, M_n - a]; the
null is accepted iff C_n meets the hypothesized parameter set.  Because the
limit is a worst case over laws, the coverage guarantee is one-sided: the
chance of wrongly rejecting can exceed alpha, and the closed form for the
upper probability of wrongly accepting under an offset xi is the same
indicator limit evaluated at [a - xi, b - xi].  Among intervals of coverage
1 - alpha, the one-sided test minimizes it (:func:`optimize_ab`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist as _NormalDist  # the standard library's, not ambiclt's
from typing import Sequence

import numpy as np

from .closed_form import BadInterval, one_sided_limit, upper_indicator_limit
from .measures import MeasureSet, interval, validate_measure_set
from .statistics import VARIANT_M, SwitchRule
from .worst_case import DriftPolicy, simulate_statistic_values

CALIBRATION_TOL = 1e-9


class Infeasible(ValueError):
    """Requested coverage is not attainable for the given left endpoint."""


class NoConvergence(RuntimeError):
    """Root finding failed to bracket or converge."""


class EmptyTheta(ValueError):
    """The hypothesized parameter set is empty."""


@dataclass(frozen=True)
class TestSpec:
    """Testing problem: error ambiguity, scale, level and null value."""

    kappa: float
    sigma: float
    alpha: float
    theta0: float = 0.0

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


def _bisect(fn, lo: float, hi: float, target: float) -> float:
    """Monotone-increasing root finder for fn(x) = target."""
    flo, fhi = fn(lo), fn(hi)
    if not flo <= target <= fhi:
        raise NoConvergence(
            f"target {target} not bracketed by [{flo:.6g}, {fhi:.6g}]"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def calibrate_interval(
    spec: TestSpec, symmetric: bool = True, a: float | None = None
) -> tuple[float, float]:
    """Find [a, b] whose worst-case limiting coverage equals 1 - alpha.

    Symmetric mode enforces a = -b (the unique solution, since coverage is
    strictly increasing in b).  Asymmetric mode takes the left endpoint and
    solves for b; coverage then caps at the right-tail limit, below which the
    request is Infeasible.
    """
    target = 1.0 - spec.alpha
    kappa = spec.kappa
    if symmetric:
        if a is not None:
            raise ValueError("symmetric mode determines a = -b")
        hi = 20.0 + 10.0 * kappa
        b = _bisect(lambda t: wrong_acceptance(spec, -t, t, 0.0) if t > 0 else 0.0,
                    0.0, hi, target)
        result = (-b, b)
    else:
        if a is None:
            raise ValueError("asymmetric mode needs the left endpoint a")
        # coverage cap as b -> inf is the right-tail upper limit at a
        cap = one_sided_limit(interval(-kappa, kappa), a, "right_tail", "upper")
        if cap <= target:
            raise Infeasible(
                f"coverage caps at {cap:.6g} < {target:.6g} for a={a!r}"
            )
        hi = a + 40.0 + 20.0 * kappa
        eps = 1e-12 * (1.0 + abs(a))
        b = _bisect(lambda t: wrong_acceptance(spec, a, t, 0.0) if t > a else 0.0,
                    a + eps, hi, target)
        result = (a, b)
    resid = abs(wrong_acceptance(spec, *result, 0.0) - target)
    if resid > CALIBRATION_TOL:
        raise NoConvergence(f"calibration residual {resid:.3g} exceeds tolerance")
    return result


def wrong_acceptance(spec: TestSpec, a: float, b: float, xi: float) -> float:
    """Limiting upper probability of accepting theta0 when the truth is
    offset by xi: the indicator limit on the shifted interval [a-xi, b-xi].
    At xi = 0 it is the coverage of [a, b]."""
    return upper_indicator_limit(interval(-spec.kappa, spec.kappa), a - xi, b - xi)


def optimize_ab(spec: TestSpec, xi: float) -> tuple[float, float, float]:
    """The interval of worst-case coverage 1 - alpha with the least
    wrong-acceptance probability at offset xi, and that probability.

    It is the one-sided test.  With z = z_{1-alpha} the standard normal
    quantile, xi > 0 gives (-inf, z - kappa] and xi < 0 its mirror
    [kappa - z, inf), both of value Phi(z - |xi|), whatever kappa is.

    Proof for xi > 0, in the limit model X = W_1 + int_0^1 theta_t dt over
    adapted drifts |theta| <= kappa.  Take any interval I of worst-case
    coverage 1 - alpha and a drift theta* whose coverage comes within eps of
    it.  Let theta' apply theta* to the moved path X~_t = X_t + xi*t; under
    theta', X~ follows theta* plus the drift xi.  By Girsanov, with Q the
    law under which W~_t = W_t + xi*t is a Brownian motion, X~ follows
    theta* under Q, and

        P_theta'(X in I - xi) = E_Q[exp(xi*W~_1 - xi^2/2); X~ in I],
        Q(X~ in I) >= 1 - alpha - eps.

    The weight rises in W~_1 ~ N(0, 1), so by Neyman-Pearson the event
    {W~_1 <= z_{1-alpha-eps}} makes the expectation least, at
    Phi(z_{1-alpha-eps} - xi).  The wrong acceptance of I, a worst case
    over drifts, is thus at least Phi(z - xi) as eps -> 0.  The one-sided
    interval attains it: the drift -kappa is worst for both its coverage
    Phi(z) and its wrong acceptance Phi(z - xi).  xi < 0 is the mirror image
    x -> -x.  At kappa = 0 this is the classical one-sided test; least
    favourable pairs (Huber and Strassen, Ann. Statist. 1973) are the
    general setting.
    """
    if xi == 0:
        raise ValueError("xi must be nonzero; at xi = 0 the objective is flat")
    kappa = spec.kappa
    target = 1.0 - spec.alpha
    edge = _NormalDist().inv_cdf(target) - kappa
    a, b = (-math.inf, edge) if xi > 0 else (-edge, math.inf)
    # the coverage constraint must bind at the returned interval
    resid = abs(wrong_acceptance(spec, a, b, 0.0) - target)
    if resid > CALIBRATION_TOL:
        raise NoConvergence(f"coverage residual {resid:.3g} at the optimum exceeds tolerance")
    return a, b, wrong_acceptance(spec, a, b, xi)


@dataclass(frozen=True)
class ThetaSet:
    """Hypothesized parameter set, held as closed intervals: a point is one
    degenerate interval, a finite set one per point."""

    intervals: tuple[tuple[float, float], ...]

    @classmethod
    def point(cls, theta0: float) -> "ThetaSet":
        return cls.finite([theta0])

    @classmethod
    def closed_interval(cls, lo: float, hi: float) -> "ThetaSet":
        if hi < lo:
            raise EmptyTheta("interval with hi < lo is empty")
        return cls(((float(lo), float(hi)),))

    @classmethod
    def finite(cls, points) -> "ThetaSet":
        pts = sorted(float(p) for p in points)
        if not pts:
            raise EmptyTheta("finite parameter set is empty")
        return cls(tuple((p, p) for p in pts))


def test_decision(M_n: float, a: float, b: float, theta: ThetaSet) -> str:
    """Accept iff the region [M_n - b, M_n - a] meets the parameter set."""
    if not a < b:
        raise BadInterval(f"need a < b, got a={a!r}, b={b!r}")
    lo, hi = M_n - b, M_n - a
    accept = any(t_lo <= hi and t_hi >= lo for t_lo, t_hi in theta.intervals)
    return "accept" if accept else "reject"


def size_power_simulation(
    L_error: MeasureSet,
    spec: TestSpec,
    a: float,
    b: float,
    theta_true: float,
    n: int,
    paths: int,
    seed: int,
    policy: DriftPolicy | None = None,
) -> tuple[float, float]:
    """Monte Carlo acceptance rate of the point-null test at theta0 when data
    are theta_true plus errors drawn under a drift policy.

    The test decides on the statistic of the residuals x_i - theta0 = d + y_i,
    d = theta_true - theta0, under the rule centered at (a + b)/2 (see
    :func:`residual_statistic`).  That equals d plus the error-process
    statistic with the switching center translated by -d, so paths are
    simulated directly on the error process.  Returns (accept_rate, stderr).
    """
    iv = validate_measure_set(L_error)
    d = theta_true - spec.theta0
    rule = SwitchRule(0.5 * (a + b) - d, iv)
    if policy is None:
        policy = DriftPolicy.threshold(L_error, rule)
    M_err = simulate_statistic_values(
        L_error, policy, "special", n, paths, seed, rule=rule
    )
    shifted = d + M_err
    accepted = (shifted >= a) & (shifted <= b)
    rate = float(np.mean(accepted))
    stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / paths)
    return rate, stderr


def residual_statistic(xs: Sequence[float], spec: TestSpec, a: float, b: float) -> float:
    """Statistic of the residuals x_i - theta0 under the error-process rule.

    Under the null this equals M_n - theta0 exactly; it is what the
    command-line decision path evaluates against [a, b].
    """
    n = len(xs)
    if n == 0:
        raise ValueError("need at least one observation")
    iv = interval(-spec.kappa, spec.kappa, spec.sigma)
    rule = SwitchRule(0.5 * (a + b), iv)
    from .statistics import path_statistic

    ys = [x - spec.theta0 for x in xs]
    return float(path_statistic(ys, n, rule, VARIANT_M))
