"""Exact arithmetic for running-statistic values of the form u + w/sqrt(s).

The drift-switching statistics accumulate increments ``x/n`` and
``(x - mu)/(sigma*sqrt(n))``.  With rational data both coefficient streams
are rational, but the scale factor ``1/(sigma*sqrt(n)) = 1/sqrt(n*sigma^2)``
is generally irrational.  Tracking the pair (u, w) against the fixed
rational scale ``s = n*sigma^2`` keeps every state exact, which is what lets
the worst-case dynamic program merge paths that reach the same value and
compare statistics to rational thresholds without rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import isfinite, isqrt, sqrt
from typing import Union

Rational = Union[int, Fraction]
Numeric = Union[int, float, str, Fraction, Decimal]

# The float filters of the dynamic program and the exact fold compute a
# statistic to within a few ulps of a bound on the magnitudes of the terms
# they sum; a value within this relative margin of a threshold or an
# indicator endpoint is decided by the exact test instead.
FILTER_MARGIN = 1e-10


def to_fraction(x: Numeric) -> Fraction:
    """Coerce a number to an exact Fraction.

    Floats are read through their shortest decimal representation, so
    ``to_fraction(0.6) == Fraction(3, 5)``.  Strings accept both decimals
    ("0.25") and ratios ("1/4"); any other string, "inf" and "1/0" among
    them, raises ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not isfinite(x):
            raise ValueError(f"cannot represent {x!r} as a fraction")
        return Fraction(Decimal(repr(x)))
    if isinstance(x, Decimal):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        try:
            return Fraction(text) if "/" in text else Fraction(Decimal(text))
        except (ArithmeticError, ValueError):  # decimal.InvalidOperation, 1/0, inf
            raise ValueError(f"cannot read {x!r} as a number") from None
    raise TypeError(f"cannot coerce {type(x).__name__} to a fraction")


def sqrt_exact(value: Fraction) -> Fraction | None:
    """Return the exact rational square root of ``value``, or None."""
    num, den = value.numerator, value.denominator
    if num < 0:
        raise ValueError("square root of a negative rational")
    return _sqrt_ratio(num, den)


# keyed by the integers: hashing a Fraction costs more than the two isqrt
@lru_cache(maxsize=256)
def _sqrt_ratio(num: int, den: int) -> Fraction | None:
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _sign(x: Fraction | int) -> int:
    return (x > 0) - (x < 0)


def sign_affine(a: Fraction, b: Fraction, s: Fraction) -> int:
    """Exact sign of ``a + b*sqrt(s)`` for rational a, b and s > 0.

    Opposite-sign cases reduce to comparing a^2 with b^2*s, which stays in
    rational arithmetic.
    """
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs = a * a
    rhs = b * b * s
    if a > 0:  # b < 0: positive iff a^2 > b^2 s
        return _sign(lhs - rhs)
    return _sign(rhs - lhs)


@dataclass(frozen=True)
class ExactValue:
    """The number u + w/sqrt(s), held exactly.

    Instances are canonical: when sqrt(s) is itself rational the w-part is
    folded into u, so equality of instances is equality of numbers and the
    pair (u, w) doubles as an exact dictionary key.
    """

    u: Fraction
    w: Fraction
    s: Fraction

    @staticmethod
    def create(u: Fraction, w: Fraction, s: Fraction) -> "ExactValue":
        if s <= 0:
            raise ValueError("scale must be positive")
        root = sqrt_exact(s)
        if root is not None and w != 0:
            return ExactValue(u + w / root, Fraction(0), s)
        return ExactValue(u, w, s)

    @staticmethod
    def zero(s: Fraction) -> "ExactValue":
        return ExactValue.create(Fraction(0), Fraction(0), s)

    def shift(self, du: Fraction, dw: Fraction) -> "ExactValue":
        return ExactValue.create(self.u + du, self.w + dw, self.s)

    def cmp(self, t: Rational) -> int:
        """Exact sign of (self - t) for rational t."""
        # u - t + w/sqrt(s) = (u - t) + (w/s)*sqrt(s)
        return sign_affine(self.u - t, self.w / self.s, self.s)

    def key(self) -> tuple[Fraction, Fraction]:
        return (self.u, self.w)

    def __float__(self) -> float:
        if self.w == 0:
            return float(self.u)
        return float(self.u) + float(self.w) / sqrt(float(self.s))
