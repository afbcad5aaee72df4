"""Terminal payoff functions shared by the dynamic programs and the PDE solver.

A payoff is the indicator of an interval [a, b] at a bandwidth h >= 0.  At
h = 0 it is the sharp indicator; a one-sided indicator has an infinite
endpoint.  At h > 0 it is the indicator's Gaussian mollification, which has
the closed form Phi((b-x)/h) - Phi((a-x)/h); it is symmetric about (a+b)/2
with slope sign opposite to x - center, exactly the shape the switching
rules are built for.

Sharp indicators also evaluate *exactly* at exact statistic values, so the
enumeration oracle classifies boundary atoms without rounding; the dynamic
program tests its cells against the exact endpoints ``a_exact`` and
``b_exact`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy

from ._exact import ExactValue, to_fraction

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class TerminalFunction:
    """The payoff applied to the terminal statistic value: the indicator of
    [a, b] at bandwidth h, sharp at h = 0."""

    a: float
    b: float
    h: float
    a_exact: Fraction | None = None
    b_exact: Fraction | None = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def _endpoint(x) -> tuple[float, Fraction | None]:
        if isinstance(x, float) and math.isinf(x):
            return x, None
        exact = to_fraction(x)
        return float(exact), exact

    @classmethod
    def indicator(cls, a, b) -> "TerminalFunction":
        """Closed-interval indicator of [a, b]; endpoints may be +/-inf."""
        af, a_exact = cls._endpoint(a)
        bf, b_exact = cls._endpoint(b)
        # compared exactly where possible: close endpoints may round together
        if not (af if a_exact is None else a_exact) < (bf if b_exact is None else b_exact):
            raise ValueError(f"need a < b, got {a!r}, {b!r}")
        return cls(af, bf, 0.0, a_exact, b_exact)

    @classmethod
    def left(cls, b) -> "TerminalFunction":
        """Indicator of (-inf, b]."""
        return cls.indicator(-math.inf, b)

    @classmethod
    def right(cls, a) -> "TerminalFunction":
        """Indicator of [a, inf)."""
        return cls.indicator(a, math.inf)

    @classmethod
    def smoothed_indicator(cls, a, b, h: float) -> "TerminalFunction":
        """Gaussian mollification of the indicator of [a, b] at bandwidth h.

        One-sided versions are obtained with an infinite endpoint.
        """
        af, bf = float(a), float(b)
        if not af < bf:
            raise ValueError(f"need a < b, got {a!r}, {b!r}")
        if not h > 0:
            raise ValueError("bandwidth h must be positive")
        return cls(af, bf, float(h))

    # -- shape metadata ----------------------------------------------------

    @property
    def center(self) -> float | None:
        """The midpoint of [a, b]; None for a one-sided payoff."""
        if math.isinf(self.a) or math.isinf(self.b):
            return None
        return 0.5 * (self.a + self.b)

    @property
    def supports_exact(self) -> bool:
        """True for a sharp indicator, which evaluates exactly."""
        return self.h == 0

    def breakpoints(self) -> tuple[float, ...]:
        """Kink/jump locations, for adaptive quadrature."""
        return tuple(p for p in (self.a, self.b) if math.isfinite(p))

    # -- evaluation ---------------------------------------------------------

    def sample(self, x: np.ndarray) -> np.ndarray:
        """Evaluate on an array of points."""
        x = np.asarray(x, dtype=float)
        if self.h == 0:
            return ((x >= self.a) & (x <= self.b)).astype(float)
        hi = scipy.special.ndtr((self.b - x) / self.h) if math.isfinite(self.b) else np.ones_like(x)
        lo = scipy.special.ndtr((self.a - x) / self.h) if math.isfinite(self.a) else np.zeros_like(x)
        return np.asarray(hi - lo, dtype=float)

    def __call__(self, x: float) -> float:
        return float(self.sample(np.asarray([x]))[0])

    def evaluate_exact(self, value: ExactValue) -> Fraction:
        """Exact 0/1 classification of an exact statistic value."""
        if self.h:
            raise TypeError("a smoothed indicator has no exact evaluation")
        if self.a_exact is not None and value.cmp(self.a_exact) < 0:
            return _ZERO
        if self.b_exact is not None and value.cmp(self.b_exact) > 0:
            return _ZERO
        return _ONE
