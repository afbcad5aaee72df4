"""The switching statistics one observation at a time.

The step-by-step reference that the one-loop folds of
:mod:`ambiclt.statistics` (``path_statistic`` and ``statistic_trace``) are
checked against: each step reads the rule's threshold for that step, picks
the mean by :meth:`SwitchRule.mean` and adds the variant's increment, in
float or in exact arithmetic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from ambiclt._exact import ExactValue, to_fraction
from ambiclt.measures import AmbiguityInterval
from ambiclt.statistics import (_FOLD_INCREMENT, _VARIANTS, VARIANT_M, VARIANT_TILDE,
                                SwitchRule, _as_float)


class HorizonExceeded(ValueError):
    """Attempted to update a statistic already at its horizon."""


@dataclass(frozen=True)
class StatState:
    """Statistic value after m of n steps."""

    m: int
    n: int
    M: Union[float, ExactValue]
    variant: str = VARIANT_M

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0 <= self.m <= self.n:
            raise ValueError("need 0 <= m <= n")
        if self.m == 0:
            zero = self.M.cmp(0) == 0 if isinstance(self.M, ExactValue) else self.M == 0
            if not zero:
                raise ValueError("the statistic starts at 0")

    @property
    def exact(self) -> bool:
        return isinstance(self.M, ExactValue)

    def value(self) -> float:
        return float(self.M)


def initial_state(n: int, variant: str = VARIANT_M) -> StatState:
    return StatState(0, n, 0.0, variant)


def initial_state_exact(n: int, interval: AmbiguityInterval, variant: str = VARIANT_M) -> StatState:
    """Start an exact run; requires the interval's exact variance."""
    scale = Fraction(n) * interval.variance_exact()
    return StatState(0, n, ExactValue.zero(scale), variant)


def _center(state: StatState, rule: SwitchRule):
    """mu_{m+1} for the state's variant, in the state's arithmetic."""
    m_next = state.m + 1
    if state.exact:
        threshold = rule.threshold_exact(m_next, state.n)
    else:
        threshold = rule.threshold(m_next, state.n)
    return rule.mean(state.M, threshold, tilde=state.variant == VARIANT_TILDE)


def step_mu(state: StatState, rule: SwitchRule):
    """Mean chosen for step m+1 under the M-rule (ties go to the upper mean)."""
    if state.variant != VARIANT_M:
        raise ValueError("step_mu applies to the M variant")
    if state.m >= state.n:
        raise HorizonExceeded("no step left to choose a mean for")
    return _center(state, rule)


def step_mu_tilde(state: StatState, rule: SwitchRule):
    """Mean chosen for step m+1 under the M-tilde rule (ties to the upper mean)."""
    if state.variant != VARIANT_TILDE:
        raise ValueError("step_mu_tilde applies to the M-tilde variant")
    if state.m >= state.n:
        raise HorizonExceeded("no step left to choose a mean for")
    return _center(state, rule)


def update_statistic(state: StatState, x, rule: SwitchRule) -> StatState:
    """Advance one observation: M += x/n + (x - mu)/(sigma*sqrt(n))."""
    if state.m >= state.n:
        raise HorizonExceeded(f"horizon n={state.n} already reached")
    mu = _center(state, rule)
    inc = _FOLD_INCREMENT[state.variant]
    n = state.n
    if state.exact:
        new = state.M.shift(*inc.exact(to_fraction(x), mu, n))
    else:
        new = inc.advance(state.M, _as_float(x), mu, n, float(rule.interval.sigma))
    return StatState(state.m + 1, n, new, state.variant)


def write_trace_csv(rows: Iterable[tuple[int, float, float]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["m", "mu_m", "M_m"])
        for m, mu, value in rows:
            writer.writerow([m, repr(mu), repr(value)])
