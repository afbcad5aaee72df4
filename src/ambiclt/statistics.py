"""Recursive drift-switching statistics.

The running statistic over a horizon of n observations is

    M_m = sum_{i<=m} x_i/n + sum_{i<=m} (x_i - mu_i)/(sigma*sqrt(n)),

where each centering mean mu_i is chosen between the interval extremes by a
threshold test on the previous value: the M-rule picks the upper mean when
M_{m-1} <= threshold(m), the M-tilde rule when M_tilde_{m-1} >= threshold(m),
with boundary ties going to the upper mean in both.  The threshold at step m
is -((mu_upper+mu_lower)/2)*(1-(m-1)/n) + c for a center parameter c, a
rational that float arithmetic reads correctly rounded; the sentinels
c = +/-inf freeze the rule at a constant mean.

Every route that evaluates a statistic -- this fold, the worst-case dynamic
program, its enumeration oracle, the product model and Monte Carlo -- takes
its step from :data:`INCREMENTS` and, for the switching statistics, its
centering mean from :meth:`SwitchRule.mean`.

Both float and exact-rational evaluation are supported.  In exact mode the
statistic is carried as u + w/sqrt(n*sigma^2) with rational u, w
(:class:`ambiclt._exact.ExactValue`), so threshold comparisons and terminal
indicator evaluations are free of rounding and path enumeration merges
states exactly.

:func:`path_statistic` and :func:`statistic_trace` fold a whole path in one
loop.  The float fold adds one step per observation to the float value,
the drift term first, with the float operations of :meth:`Increment.advance`
and the constants it forms taken once per path.  The exact fold carries
only the outcome sum, as an integer numerator over the path's common
denominator (a path of ints is summed as it is), and the count of
upper-mean steps; every step decides the rule on the float value of that
state against the correctly rounded threshold, and only a step whose float
value lies within :data:`ambiclt._exact.FILTER_MARGIN` of the threshold,
relative to the magnitudes summed, builds an ExactValue for the exact
test.  The result is built once, at the end, and equals the statistic
summed step by step in exact arithmetic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from ._exact import FILTER_MARGIN, ExactValue, Rational, to_fraction
from .measures import AmbiguityInterval, MeasureSet

VARIANT_M = "M"
VARIANT_TILDE = "M-tilde"
_VARIANTS = (VARIANT_M, VARIANT_TILDE)


class LengthMismatch(ValueError):
    """Observation path length differs from the horizon."""


@dataclass(frozen=True)
class SwitchRule:
    """Center parameter and mean interval defining the switching thresholds."""

    center: float
    interval: AmbiguityInterval

    def mean_pair(self) -> tuple[float, float]:
        return float(self.interval.mu_lower), float(self.interval.mu_upper)

    def exact_mean_pair(self) -> tuple[Fraction, Fraction]:
        return self._exact_means

    # computed once per rule: the exact fold asks for them at every step
    @cached_property
    def _exact_means(self) -> tuple[Fraction, Fraction]:
        return to_fraction(self.interval.mu_lower), to_fraction(self.interval.mu_upper)

    @cached_property
    def _exact_mid_and_center(self) -> tuple[Fraction, Fraction]:
        lo, hi = self._exact_means
        return (lo + hi) / 2, to_fraction(self.center)

    def threshold(self, m: int, n: int) -> float:
        """Threshold compared against M_{m-1} when choosing mu_m: the
        correctly rounded :meth:`threshold_exact`."""
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        return self._thresholds(n)[1][m - 1]

    def threshold_exact(self, m: int, n: int) -> Fraction | float:
        """The threshold as a Fraction; the sentinel centers return +/-inf."""
        if math.isinf(self.center):
            return self.center
        mid, center = self._exact_mid_and_center
        return -mid * (1 - Fraction(m - 1, n)) + center

    def _thresholds(self, n: int) -> tuple[tuple, tuple[float, ...]]:
        """:meth:`threshold_exact` for m = 1..n, and each correctly rounded to
        a float; kept on the rule, one table per horizon."""
        table = self._tables.get(n)
        if table is None:
            exact = tuple(self.threshold_exact(m, n) for m in range(1, n + 1))
            table = self._tables[n] = exact, tuple(map(float, exact))
        return table

    @cached_property
    def _tables(self) -> dict[int, tuple[tuple, tuple[float, ...]]]:
        return {}

    def upper(self, M, threshold, tilde: bool = False):
        """Whether mu_m is the upper mean, given M_{m-1} and the step's
        threshold: M <= threshold under the M-rule, M >= threshold under the
        M-tilde rule, so ties go to the upper mean in both.

        ``M`` may be a float, a numpy array (the answer is then a boolean
        array) or an :class:`ExactValue` compared against
        :meth:`threshold_exact`.
        """
        if isinstance(M, ExactValue):
            if math.isinf(self.center):
                sign = -1 if self.center > 0 else 1  # sign of M - threshold
            else:
                sign = M.cmp(threshold)
            return sign >= 0 if tilde else sign <= 0
        return M >= threshold if tilde else M <= threshold

    def mean(self, M, threshold, tilde: bool = False):
        """mu_m, in the arithmetic of ``M``: a Fraction for an ExactValue, a
        float for a float, an array for an array."""
        hit = self.upper(M, threshold, tilde)
        lo, hi = self.exact_mean_pair() if isinstance(M, ExactValue) else self.mean_pair()
        return np.where(hit, hi, lo) if isinstance(hit, np.ndarray) else (hi if hit else lo)


LAW_MEAN = "law"


class Increment(NamedTuple):
    """One step of a statistic over a horizon n for an outcome x:

        drift * x/n + noise * (x - center)/sqrt(n*sigma^2),

    where ``centering`` names the center: LAW_MEAN (the chosen law's own
    mean), VARIANT_M or VARIANT_TILDE (the switching rule's mean), or None
    (no centering; the noise weight is then 0).
    """

    drift: Rational
    noise: Rational
    centering: str | None

    @property
    def switching(self) -> bool:
        return self.centering in _VARIANTS

    @property
    def tilde(self) -> bool:
        return self.centering == VARIANT_TILDE

    def law_centers(self, means: Sequence) -> list:
        """Per-law centers of a non-switching step: each law's own mean, or 0."""
        if self.centering == LAW_MEAN:
            return list(means)
        return [Fraction(0)] * len(means)

    def exact(self, x: Fraction, center: Fraction, n: int) -> tuple[Fraction, Fraction]:
        """The step as exact coefficients (du, dw) of u + w/sqrt(n*sigma^2)."""
        return self.drift * x / n, self.noise * (x - center)

    def terms(self, x, center, n: int, sigma: float):
        """The step's drift term and noise term in float arithmetic; x and
        center may be arrays."""
        return (float(self.drift) * x / n,
                float(self.noise) * (x - center) / (sigma * math.sqrt(n)))

    def advance(self, M, x, center, n: int, sigma: float):
        """M plus the step in float arithmetic, the drift term added first;
        M, x and center may be arrays."""
        drift, noise = self.terms(x, center, n, sigma)
        return M + drift if self.centering is None else M + drift + noise


# The statistic of each worst-case variant, defined once for every route.
# "scaled" takes its weights from the caller (see :func:`increment`).
INCREMENTS = {
    "clt": Increment(1, 1, LAW_MEAN),
    "scaled": Increment(None, None, LAW_MEAN),
    "deviation": Increment(0, 1, LAW_MEAN),
    "special": Increment(1, 1, VARIANT_M),
    "tilde": Increment(1, 1, VARIANT_TILDE),
    "lln": Increment(1, 0, None),
}
_FOLD_INCREMENT = {VARIANT_M: INCREMENTS["special"], VARIANT_TILDE: INCREMENTS["tilde"]}


def increment(variant: str, alpha=1, beta=1) -> Increment:
    """The variant's row of :data:`INCREMENTS`, with (alpha, beta) as the
    weights of the "scaled" variant; alpha must be positive and beta
    nonnegative."""
    if variant not in INCREMENTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "scaled":
        alpha, beta = to_fraction(alpha), to_fraction(beta)
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        return INCREMENTS[variant]._replace(drift=beta, noise=alpha)
    return INCREMENTS[variant]


def _check_path(xs: Sequence, n: int, variant: str) -> Increment:
    """The variant's step, once the path and the variant are checked."""
    if len(xs) != n:
        raise LengthMismatch(f"expected {n} observations, got {len(xs)}")
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return _FOLD_INCREMENT[variant]


def _as_float(x) -> float:
    """float(x); a "p/q" string, which float() rejects, goes through
    to_fraction and reads as exact mode reads it, correctly rounded."""
    try:
        return float(x)
    except ValueError:
        return float(to_fraction(x))


def _fold_float(xs: Sequence, n: int, rule: SwitchRule, inc: Increment):
    """(mu_m, M_m) for m = 1..n, one float step per observation: the float
    operations of :meth:`Increment.advance`, in its order, with the
    constants it forms taken once per path."""
    lo, hi = rule.mean_pair()
    drift, noise = float(inc.drift), float(inc.noise)
    root = float(rule.interval.sigma) * math.sqrt(n)
    xs = list(map(_as_float, xs))
    M = 0.0
    for x, t in zip(xs, rule._thresholds(n)[1]):
        mu = hi if (M >= t if inc.tilde else M <= t) else lo
        M = M + drift * x / n + noise * (x - mu) / root
        yield mu, M


def _fold_exact(xs: Sequence, n: int, rule: SwitchRule, inc: Increment) -> ExactValue:
    """M_{n,n} as an ExactValue; see the module docstring."""
    s = Fraction(n) * rule.interval.variance_exact()
    if not xs:
        return ExactValue.zero(s)  # rejects n = 0: the scale must be positive
    lo, hi = rule.exact_mean_pair()
    lo_f, hi_f = float(lo), float(hi)
    if set(map(type, xs)) == {int}:
        nums, den = xs, 1
    else:
        fractions = [to_fraction(x) for x in xs]
        den = math.lcm(*(x.denominator for x in fractions))
        nums = [x.numerator * (den // x.denominator) for x in fractions]
    thresholds, float_thresholds = rule._thresholds(n)
    finite, tilde = not math.isinf(rule.center), inc.tilde
    # the float value of the state after m steps is d*(sum x) + e*(sum x -
    # sum mu), formed from the exact sums so that its error stays a few ulps
    # of the magnitudes g at any horizon
    d = float(inc.drift) / n
    e = float(inc.noise) / math.sqrt(float(s))
    ade, ae, ahi, alo = abs(d) + abs(e), abs(e), abs(hi_f), abs(lo_f)
    sx, k = 0, 0  # sum x = sx/den; k of the m steps took the upper mean
    for m, (x, t) in enumerate(zip(nums, float_thresholds)):
        j = m - k
        fx = sx / den
        f = d * fx + e * (fx - (k * hi_f + j * lo_f))
        g = ade * abs(fx) + ae * (k * ahi + j * alo)
        if finite and abs(f - t) <= FILTER_MARGIN * (g + abs(t)):
            M = ExactValue.create(*inc.exact(Fraction(sx, den), k * hi + j * lo, n), s)
            k += rule.upper(M, thresholds[m], tilde)
        else:
            k += f >= t if tilde else f <= t
        sx += x
    return ExactValue.create(*inc.exact(Fraction(sx, den), k * hi + (n - k) * lo, n), s)


def path_statistic(
    xs: Sequence, n: int, rule: SwitchRule, variant: str = VARIANT_M, exact: bool = False
):
    """Fold a full observation path; returns M_{n,n} (float, or ExactValue)."""
    inc = _check_path(xs, n, variant)
    if exact:
        return _fold_exact(xs, n, rule, inc)
    M = 0.0
    for _, M in _fold_float(xs, n, rule, inc):
        pass
    return M


def statistic_trace(
    xs: Sequence, n: int, rule: SwitchRule, variant: str = VARIANT_M
) -> list[tuple[int, float, float]]:
    """Rows (m, mu_m, M_m) for m = 1..n, float-valued, ready for CSV."""
    inc = _check_path(xs, n, variant)
    return [(m, mu, M) for m, (mu, M) in enumerate(_fold_float(xs, n, rule, inc), 1)]


def read_path_csv(path) -> list[float]:
    """Read one observation per row, as the float fold reads it ("p/q"
    included); a first row that cannot be read is a header and is skipped.
    A row that reads as infinite or nan raises ValueError naming its line."""
    out: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row:
                continue
            try:
                x = _as_float(row[0])
            except ValueError:
                if out:
                    raise
                continue  # header row
            if not math.isfinite(x):
                raise ValueError(f"line {reader.line_num}: {row[0]!r} is not a finite number")
            out.append(x)
    return out


def condition1_diagnostic(
    L: MeasureSet, n: int, delta, rule: SwitchRule
) -> float:
    """Finite-n worst-case estimate of the switching-band condition.

    Averages over steps the worst-case expected gap between the chosen
    conditional mean and the M-tilde centering mean on the band where the
    shifted statistic sits within delta of the switching threshold.  Since
    the achievable means span the full interval, each step contributes
    (mu_upper - mu_lower) times the worst-case band probability, which is
    computed exactly by the backward dynamic program.

    A value near zero supports replacing conditional means by the explicit
    switching means; the caller chooses delta (a sweep is recommended, the
    diagnostic makes no accept/reject decision).  ``delta`` is any number
    :func:`to_fraction` reads, "1/10" among them, and must be positive.
    """
    delta = to_fraction(delta)
    if not delta > 0:
        raise ValueError("delta must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    from . import worst_case  # deferred: worst_case imports this module

    mu_lo, mu_hi = L.mean_bounds()
    width = mu_hi - mu_lo
    if width == 0:
        return 0.0
    total = 0.0
    for m in range(1, n + 1):
        total += worst_case.band_probability_sup(L, n, m, delta, rule)
    return float(width) * total / n
