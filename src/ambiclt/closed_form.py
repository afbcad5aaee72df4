"""Closed-form worst-case limits for interval indicators.

Under mean ambiguity [mu_lower, mu_upper] with unit variance, the limiting
upper probability that the statistic lands in [a, b] is

    Phi_{-mu_upper}(-a) - exp(-(mu_upper-mu_lower)(b-a)/2) Phi_{-mu_upper}(-b)
        when a + b >= mu_upper + mu_lower,
    Phi_{mu_lower}(b) - exp(-(mu_upper-mu_lower)(b-a)/2) Phi_{mu_lower}(a)
        otherwise,

with Phi_mu the normal(mu, 1) cdf.  The lower probability swaps the roles of
the two means and flips the sign in the exponential factor.  One-sided
indicators collapse to plain normal cdfs at the extreme drifts, and the whole
family reduces to the symmetric case [-kappa, kappa] by translating the
interval endpoints (the shift lemma), which is how every entry point here is
evaluated internally: the two branches then meet exactly at a + b = 0.
A one-sided payoff smoothed at bandwidth h is one more normal cdf, of
variance 1 + h^2 (:func:`monotone_reduction`).

The same limit is the time-1 law of a diffusion whose drift -kappa*sgn(x)
reflects paths toward the origin; :func:`reflected_density` evaluates its
transition density, giving an independent integral route to the indicator
values.
"""

from __future__ import annotations

import math

import numpy as np
import scipy

from .measures import AmbiguityInterval
from .terminal import TerminalFunction

_SQRT2 = math.sqrt(2.0)


class BadInterval(ValueError):
    """Interval endpoints do not satisfy a < b."""


class BadTime(ValueError):
    """Transition-density time must be positive."""


class NotMonotone(ValueError):
    """Terminal function is not globally monotone."""


def normal_cdf(mu: float, x: float) -> float:
    """P(N(mu, 1) <= x), via the complementary error function.

    Routing through erfc keeps full relative accuracy in the lower tail,
    which matters because the indicator limits multiply tiny tail cdfs by
    exponential prefactors; naive 1 - Phi would lose those digits.
    """
    if not math.isfinite(mu):
        raise ValueError("mean must be finite")
    if math.isinf(x):
        return 0.0 if x < 0 else 1.0
    return 0.5 * math.erfc((mu - x) / _SQRT2)


def _std_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def _exp_times_cdf(log_weight: float, z: float) -> float:
    """exp(log_weight) * Phi(z), evaluated in log space.

    The products appearing in the limits are bounded by 1 even when the
    weight alone overflows, so summing exponents first is always safe.
    """
    total = log_weight + float(scipy.special.log_ndtr(z))
    return math.exp(total)


def shift_reduce(iv: AmbiguityInterval) -> tuple[float, float]:
    """Split [mu_lower, mu_upper] into half-width kappa and center c.

    Evaluating any limit on [mu_lower, mu_upper] equals evaluating it on
    [-kappa, kappa] with all interval endpoints translated by -c.
    """
    return iv.kappa, iv.center


def _centered_limit(kappa: float, a: float, b: float) -> float:
    # upper limit in the symmetric case [-kappa, kappa], branch point at
    # a + b = 0; with kappa negated the two means swap roles and it is the
    # lower limit
    rate = -kappa * (b - a)
    if a + b >= 0.0:
        value = _std_cdf(kappa - a) - _exp_times_cdf(rate, kappa - b)
    else:
        value = _std_cdf(b + kappa) - _exp_times_cdf(rate, a + kappa)
    return min(1.0, max(0.0, value))


def _indicator_limit(iv: AmbiguityInterval, a: float, b: float, side: str) -> float:
    if not a < b:
        raise BadInterval(f"need a < b, got a={a!r}, b={b!r}")
    if math.isinf(a) and math.isinf(b):
        return 1.0
    if math.isinf(a):
        return one_sided_limit(iv, b, "left_tail", side)
    if math.isinf(b):
        return one_sided_limit(iv, a, "right_tail", side)
    kappa, c = shift_reduce(iv)
    return _centered_limit(kappa if side == "upper" else -kappa, a - c, b - c)


def upper_indicator_limit(iv: AmbiguityInterval, a: float, b: float) -> float:
    """Limiting worst-case (upper) probability of the interval [a, b].

    Infinite endpoints are accepted and collapse to the one-sided limits.
    """
    return _indicator_limit(iv, a, b, "upper")


def lower_indicator_limit(iv: AmbiguityInterval, a: float, b: float) -> float:
    """Limiting best-case (lower) probability of the interval [a, b]."""
    return _indicator_limit(iv, a, b, "lower")


def one_sided_limit(iv: AmbiguityInterval, b: float, direction: str, side: str) -> float:
    """Limit for one-sided indicators.

    ``direction="left_tail"`` is the indicator of (-inf, b],
    ``direction="right_tail"`` the indicator of [b, inf).  The upper limit
    of a monotone indicator is a plain normal cdf at the favorable extreme
    drift; the lower limit swaps the two means.
    """
    if direction not in ("left_tail", "right_tail"):
        raise ValueError(f"unknown direction {direction!r}")
    if side not in ("upper", "lower"):
        raise ValueError(f"unknown side {side!r}")
    mu_lo, mu_hi = float(iv.mu_lower), float(iv.mu_upper)
    if direction == "left_tail":
        mu = mu_lo if side == "upper" else mu_hi
        return normal_cdf(mu, b)
    mu = mu_hi if side == "upper" else mu_lo
    # survival of N(mu,1) at b, computed by reflection to keep tail accuracy
    return normal_cdf(-mu, -b)


def monotone_reduction(phi: TerminalFunction, iv: AmbiguityInterval) -> float:
    """Upper limit of a one-sided payoff, read from its parameters.

    A payoff of (-inf, b] falls and one of [a, inf) rises, so the worst case
    holds the lower or the upper mean throughout.  At bandwidth h the payoff
    at x is P(x + h*Z in [a, b]), so the limit is :func:`one_sided_limit`
    for a normal law of variance 1 + h^2.  Both endpoints infinite give 1;
    both finite rise and fall, and NotMonotone is raised.
    """
    falls, rises = math.isinf(phi.a), math.isinf(phi.b)
    if not (falls or rises):
        raise NotMonotone("terminal function rises and falls")
    scale = math.sqrt(1.0 + phi.h * phi.h)
    if rises:
        return normal_cdf(-float(iv.mu_upper) / scale, -phi.a / scale)
    return normal_cdf(float(iv.mu_lower) / scale, phi.b / scale)


def reflected_density(x: float, kappa: float, t: float, z):
    """Transition density q_x(t, z) of the drift -kappa*sgn(.) diffusion.

    q_x(t,z) = exp(-[(x-z)^2 + 2*kappa*t*(|z|-|x|) + kappa^2 t^2]/(2t)) / sqrt(2 pi t)
               + kappa * exp(-2*kappa*|z|) * P(N(0,t) > |x| + |z| - kappa*t)

    Accepts a scalar or array ``z`` and returns the matching shape.
    """
    if t <= 0:
        raise BadTime(f"time must be positive, got {t!r}")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    z_arr = np.asarray(z, dtype=float)
    ax = abs(x)
    az = np.abs(z_arr)
    gauss = np.exp(
        -((x - z_arr) ** 2 + 2.0 * kappa * t * (az - ax) + (kappa * t) ** 2) / (2.0 * t)
    ) / math.sqrt(2.0 * math.pi * t)
    tail = scipy.special.ndtr((kappa * t - ax - az) / math.sqrt(t))
    out = gauss + kappa * np.exp(-2.0 * kappa * az) * tail
    if np.isscalar(z) or z_arr.ndim == 0:
        return float(out)
    return out


def indicator_limit_detail(
    iv: AmbiguityInterval, a: float, b: float, side: str = "upper"
) -> dict:
    """Value plus the branch/shift bookkeeping, for reporting.

    The branch is the one the value came from: the test (a - c) + (b - c) >= 0
    on the shift-reduced endpoints, not a float comparison of a + b with
    mu_lower + mu_upper, which can round to the other side of a tie.
    """
    if side not in ("upper", "lower"):
        raise ValueError(f"unknown side {side!r}")
    value = _indicator_limit(iv, a, b, side)
    kappa, center = shift_reduce(iv)
    if math.isinf(a) or math.isinf(b):
        branch = "one_sided"
    else:
        branch = "a+b>=mu_sum" if (a - center) + (b - center) >= 0.0 else "a+b<mu_sum"
    return {"value": value, "branch": branch, "kappa": kappa, "center": center}
