"""One-step ambiguity models: finite sets of equivalent discrete laws.

A :class:`MeasureSet` is the per-experiment model: a nonempty finite family
of discrete probability laws on a common list of outcome values, mutually
equivalent (identical null sets) and sharing a single variance.  Everything
downstream — the switching statistics, the worst-case dynamic programs, the
closed-form limits — is parametrized by the interval of means and the common
standard deviation that :func:`validate_measure_set` extracts.

All arithmetic is exact: probabilities and values are stored as
``fractions.Fraction``, with floats read through their shortest decimal
representation (``0.6`` means 3/5).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import sqrt
from typing import Union

from ._exact import Numeric, sqrt_exact, to_fraction


class MeasureError(ValueError):
    """Base class for invalid ambiguity-model inputs."""


class SupportMismatch(MeasureError):
    """Laws live on different outcome lists or are not mutually equivalent."""


class VarianceAmbiguous(MeasureError):
    """Per-law variances are not all equal."""


class DegenerateSigma(MeasureError):
    """The common variance is zero."""


class BadParameters(MeasureError):
    """Coin-example parameters violate 0 < q < p, p + q <= 1."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """A discrete law: outcome values with their probabilities."""

    values: tuple[Fraction, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(to_fraction(v) for v in self.values)
        probs = tuple(to_fraction(p) for p in self.probs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if len(values) == 0 or len(values) != len(probs):
            raise MeasureError("values and probs must have equal, nonzero length")
        if any(p < 0 for p in probs):
            raise MeasureError("probabilities must be nonnegative")
        if sum(probs) != 1:
            raise MeasureError(f"probabilities sum to {float(sum(probs))!r}, not 1")

    def mean(self) -> Fraction:
        return sum((p * v for v, p in zip(self.values, self.probs)), Fraction(0))

    def second_moment(self) -> Fraction:
        return sum((p * v * v for v, p in zip(self.values, self.probs)), Fraction(0))

    def variance(self) -> Fraction:
        m = self.mean()
        return self.second_moment() - m * m

    def support_pattern(self) -> tuple[bool, ...]:
        return tuple(p > 0 for p in self.probs)


@dataclass(frozen=True)
class MeasureSet:
    """A nonempty family of equivalent discrete laws on shared outcomes."""

    laws: tuple[DiscreteMeasure, ...]

    def __post_init__(self):
        laws = tuple(self.laws)
        object.__setattr__(self, "laws", laws)
        if not laws:
            raise MeasureError("a measure set needs at least one law")
        base = laws[0]
        for law in laws[1:]:
            if law.values != base.values:
                raise SupportMismatch("all laws must share the same outcome values")
            if law.support_pattern() != base.support_pattern():
                raise SupportMismatch(
                    "laws are not equivalent: zero-probability outcomes differ"
                )

    @property
    def values(self) -> tuple[Fraction, ...]:
        return self.laws[0].values

    def means(self) -> list[Fraction]:
        return [law.mean() for law in self.laws]

    def mean_bounds(self) -> tuple[Fraction, Fraction]:
        ms = self.means()
        return min(ms), max(ms)

    @cached_property
    def _interval(self) -> "AmbiguityInterval":
        # validate_measure_set's answer, kept on the immutable set; a set that
        # fails the checks keeps nothing, so it raises on every call
        means = self.means()
        variances = [law.second_moment() - mu * mu for law, mu in zip(self.laws, means)]
        if len(set(variances)) > 1:
            raise VarianceAmbiguous(
                f"law variances span {float(min(variances))!r}..{float(max(variances))!r}"
            )
        sigma_sq = variances[0]
        if sigma_sq == 0:
            raise DegenerateSigma("common variance is zero")
        root = sqrt_exact(sigma_sq)
        sigma: Union[float, Fraction] = root if root is not None else sqrt(float(sigma_sq))
        return AmbiguityInterval(min(means), max(means), sigma, sigma_sq=sigma_sq)

    def shifted(self, t: Numeric) -> "MeasureSet":
        """The same set with every outcome value translated by t."""
        dt = to_fraction(t)
        return MeasureSet(
            tuple(
                DiscreteMeasure(tuple(v + dt for v in law.values), law.probs)
                for law in self.laws
            )
        )


@dataclass(frozen=True)
class AmbiguityInterval:
    """Mean interval and unambiguous standard deviation of a measure set.

    ``sigma_sq`` carries the exact rational variance when known; it is what
    the exact-DP code paths use, since sigma itself is usually irrational.
    """

    mu_lower: Union[float, Fraction]
    mu_upper: Union[float, Fraction]
    sigma: Union[float, Fraction]
    sigma_sq: Fraction | None = None

    def __post_init__(self):
        if not self.mu_lower <= self.mu_upper:
            raise MeasureError("mu_lower must not exceed mu_upper")
        if not self.sigma > 0:
            raise DegenerateSigma("sigma must be positive")

    @property
    def kappa(self) -> float:
        return (float(self.mu_upper) - float(self.mu_lower)) / 2.0

    @property
    def center(self) -> float:
        return (float(self.mu_upper) + float(self.mu_lower)) / 2.0

    def variance_exact(self) -> Fraction:
        if self.sigma_sq is not None:
            return self.sigma_sq
        sig = to_fraction(self.sigma)
        return sig * sig


def interval(mu_lower: float, mu_upper: float, sigma: float = 1.0) -> AmbiguityInterval:
    """Shorthand constructor for closed-form work where sigma is irrelevant."""
    return AmbiguityInterval(mu_lower, mu_upper, sigma)


def validate_measure_set(L: MeasureSet) -> AmbiguityInterval:
    """Check the standing assumptions and extract (mu_lower, mu_upper, sigma).

    The mean interval is the exact min/max of per-law means.  Every law must
    carry exactly the same variance, which is the common sigma^2.  The set
    is immutable, so the answer is computed once per set.

    Raises
    ------
    VarianceAmbiguous
        if the per-law variances are not all equal.
    DegenerateSigma
        if the common variance is zero.
    """
    return L._interval


def coin_example(p: Numeric, q: Numeric) -> MeasureSet:
    """The three-outcome coin: values (1, -1, 0) under a favorable law
    (p, q, 1-p-q) or an unfavorable law (q, p, 1-p-q).

    Implies mean ambiguity kappa = p - q and common variance
    sigma^2 = p + q - (p - q)^2.
    """
    pf, qf = to_fraction(p), to_fraction(q)
    if not (0 < qf < pf) or pf + qf > 1:
        raise BadParameters(
            f"need 0 < q < p and p + q <= 1, got p={float(pf)}, q={float(qf)}"
        )
    rest = 1 - pf - qf
    values = (Fraction(1), Fraction(-1), Fraction(0))
    return MeasureSet(
        (
            DiscreteMeasure(values, (pf, qf, rest)),
            DiscreteMeasure(values, (qf, pf, rest)),
        )
    )


def measure_set_from_text(text: str) -> MeasureSet:
    """Parse a measure set from a small text config.

    One law per line, written as whitespace-separated ``value:prob`` pairs.
    Probabilities (and values) accept decimals or fractions "a/b".  Blank
    lines and ``#`` comments are ignored; an optional ``law:`` prefix is
    tolerated.

    Example::

        # favorable / unfavorable coin
        law: 1:0.6  -1:0.3  0:1/10
        law: 1:3/10 -1:3/5  0:0.1
    """
    laws: list[DiscreteMeasure] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("law:"):
            line = line[4:].strip()
        values: list[Fraction] = []
        probs: list[Fraction] = []
        for token in line.split():
            if ":" not in token:
                raise MeasureError(
                    f"line {lineno}: expected value:prob pairs, got {token!r}"
                )
            vtext, ptext = token.split(":", 1)
            try:
                values.append(to_fraction(vtext))
                probs.append(to_fraction(ptext))
            except ValueError as exc:
                raise MeasureError(f"line {lineno}: {exc}") from None
        laws.append(DiscreteMeasure(tuple(values), tuple(probs)))
    if not laws:
        raise MeasureError("no laws found in config text")
    return MeasureSet(tuple(laws))


def load_measure_set(path) -> MeasureSet:
    with open(path, "r", encoding="utf-8") as handle:
        return measure_set_from_text(handle.read())
