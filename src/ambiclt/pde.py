"""Nonlinear-expectation values by solving the drift-control parabolic PDE.

The limit object for a bounded terminal function phi solves, backward on
[0, 1],

    du/dt + (1/2) d2u/dx2 + g_eps(du/dx) = 0,      u(1, x) = phi(x),

with generator g_eps(z) = kappa*(sqrt(z^2 + eps^2) - eps), the smooth
approximation of kappa*|z| whose value at 0 vanishes and whose slope is
bounded by kappa.  The value at (0, x0) is the nonlinear expectation of
phi(x0 + B_1) under mean ambiguity of half-width kappa.

Time marching is implicit in the diffusion (unconditionally stable banded
solve) and explicit in the gradient nonlinearity, centered differences by
default with a monotone upwind fallback if the discrete min/max bound is
ever violated.  Artificial boundaries use zero-slope conditions, which is
consistent with terminal data that flatten at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_banded

from .measures import AmbiguityInterval
from .terminal import TerminalFunction

__all__ = [
    "GeneratorSpec",
    "PdeGrid",
    "TerminalFunction",
    "EpsExtrapolation",
    "solve_g_expectation",
    "solve_g_expectation_profile",
    "epsilon_extrapolate",
    "dpp_check",
    "monotone_reduction",
    "UnstableGrid",
    "OutOfDomain",
    "NotMonotone",
]


class UnstableGrid(ValueError):
    """Grid violates the explicit gradient-term step bound."""


class OutOfDomain(ValueError):
    """Evaluation point lies outside the spatial grid."""


class NotMonotone(ValueError):
    """Terminal function is not globally monotone."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Ambiguity half-width kappa and smoothing parameter eps."""

    kappa: float
    epsilon: float

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    def g(self, z: np.ndarray) -> np.ndarray:
        """g_eps(z) = kappa*(sqrt(z^2 + eps^2) - eps); kappa*|z| at eps = 0.

        hypot keeps g(0) exactly zero, so constants stay fixed points.
        """
        if self.epsilon == 0.0:
            return self.kappa * np.abs(z)
        return self.kappa * (np.hypot(z, self.epsilon) - self.epsilon)


@dataclass(frozen=True)
class PdeGrid:
    """Uniform space-time grid: nx nodes on [x_min, x_max], nt steps on [0, 1]."""

    x_min: float
    x_max: float
    nx: int
    nt: int

    def __post_init__(self):
        if not self.x_min < 0.0 < self.x_max:
            raise ValueError("grid must straddle zero")
        if self.nx < 3:
            raise ValueError("need nx >= 3")
        if self.nt < 1:
            raise ValueError("need nt >= 1")

    @classmethod
    def default(cls) -> "PdeGrid":
        return cls(-10.0, 10.0, 2001, 2000)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)


def _banded_matrix(nx: int, r: float) -> np.ndarray:
    """(I - dt/2 * D2) with zero-slope boundaries, in solve_banded layout."""
    ab = np.zeros((3, nx))
    ab[0, 1:] = -0.5 * r
    ab[1, :] = 1.0 + r
    ab[2, :-1] = -0.5 * r
    ab[0, 1] = -r  # ghost-node reflection at the two ends
    ab[2, -2] = -r
    return ab


def _march(
    v: np.ndarray,
    gen: GeneratorSpec,
    grid: PdeGrid,
    duration: float,
    steps: int,
    scheme: str,
) -> np.ndarray:
    if steps == 0 or duration == 0.0:
        return v.copy()
    dx = grid.dx
    dt = duration / steps
    if gen.kappa * dt > dx:
        raise UnstableGrid(
            f"dt*kappa = {gen.kappa * dt:.3g} exceeds dx = {dx:.3g}; refine nt"
        )
    ab = _banded_matrix(grid.nx, dt / (dx * dx))
    lo = float(np.min(v))
    hi = float(np.max(v))
    slack = 1e-8 * (1.0 + abs(hi) + abs(lo))
    out = v.copy()
    for _ in range(steps):
        if scheme == "centered":
            grad = np.zeros_like(out)
            grad[1:-1] = (out[2:] - out[:-2]) / (2.0 * dx)
            ham = gen.g(grad)
        else:  # monotone upwind: slope = max(-D^-, D^+, 0)
            slope = np.zeros_like(out)
            backward = np.empty_like(out)
            forward = np.empty_like(out)
            backward[1:] = (out[1:] - out[:-1]) / dx
            backward[0] = 0.0
            forward[:-1] = (out[1:] - out[:-1]) / dx
            forward[-1] = 0.0
            np.maximum(-backward, forward, out=slope)
            np.maximum(slope, 0.0, out=slope)
            ham = gen.g(slope)
        rhs = out + dt * ham
        out = solve_banded((1, 1), ab, rhs, overwrite_b=True, check_finite=False)
        if out.min() < lo - slack or out.max() > hi + slack:
            raise _MaxPrincipleViolated()
    return out


class _MaxPrincipleViolated(Exception):
    pass


def _solve_profile(
    v0: np.ndarray, gen: GeneratorSpec, grid: PdeGrid, duration: float, steps: int
) -> np.ndarray:
    try:
        return _march(v0, gen, grid, duration, steps, "centered")
    except _MaxPrincipleViolated:
        return _march(v0, gen, grid, duration, steps, "upwind")


def _terminal_samples(phi: TerminalFunction, grid: PdeGrid) -> np.ndarray:
    # sharp indicators are always mollified before solving
    if phi.kind in ("indicator", "left", "right"):
        a = phi.a if phi.kind != "left" else -math.inf
        b = phi.b if phi.kind != "right" else math.inf
        phi = TerminalFunction.smoothed_indicator(a, b, 0.05)
    return phi.sample(grid.x)


def _interp(grid: PdeGrid, profile: np.ndarray, x0: float) -> float:
    if not grid.x_min <= x0 <= grid.x_max:
        raise OutOfDomain(f"x0={x0!r} outside [{grid.x_min}, {grid.x_max}]")
    pos = (x0 - grid.x_min) / grid.dx
    i = min(int(pos), grid.nx - 2)
    t = pos - i
    if t == 0.0:
        return float(profile[i])
    return float((1.0 - t) * profile[i] + t * profile[i + 1])


def solve_g_expectation(
    phi: TerminalFunction, gen: GeneratorSpec, grid: PdeGrid, x0: float
) -> float:
    """Nonlinear expectation of phi(x0 + B_1): the PDE value u(0, x0).

    Sharp indicators are mollified at bandwidth 0.05 before solving; pass a
    ``smoothed_indicator`` explicitly to control the bandwidth.
    """
    return _interp(grid, solve_g_expectation_profile(phi, gen, grid), x0)


def solve_g_expectation_profile(
    phi: TerminalFunction, gen: GeneratorSpec, grid: PdeGrid
) -> np.ndarray:
    """Full initial-time profile u(0, .) on the grid."""
    v0 = _terminal_samples(phi, grid)
    return _solve_profile(v0, gen, grid, 1.0, grid.nt)


@dataclass(frozen=True)
class EpsExtrapolation:
    extrapolated: float
    epsilons: tuple[float, ...]
    values: tuple[float, ...]


def epsilon_extrapolate(
    phi: TerminalFunction,
    kappa: float,
    grid: PdeGrid,
    eps_sequence,
    x0: float = 0.0,
) -> EpsExtrapolation:
    """Solve along a decreasing eps sweep and extrapolate linearly to eps = 0.

    The smoothing gap g_0 - g_eps is about kappa*eps away from the kink, so
    the values climb roughly linearly as eps drops; the extrapolant uses the
    two smallest sweep entries.  The raw sequence is returned alongside so
    callers can inspect the trend rather than trust an assumed order.
    """
    eps = [float(e) for e in eps_sequence]
    if len(eps) < 1:
        raise ValueError("eps_sequence must be nonempty")
    if any(b >= a for a, b in zip(eps, eps[1:])) or eps[-1] < 0:
        raise ValueError("eps_sequence must be strictly decreasing and nonnegative")

    values = [solve_g_expectation(phi, GeneratorSpec(kappa, e), grid, x0) for e in eps]
    if len(eps) == 1:
        extrapolated = values[-1]
    else:
        e1, e2 = eps[-2], eps[-1]
        v1, v2 = values[-2], values[-1]
        extrapolated = v2 + (v2 - v1) * e2 / (e1 - e2)
    return EpsExtrapolation(float(extrapolated), tuple(eps), tuple(values))


def dpp_check(
    phi: TerminalFunction,
    gen: GeneratorSpec,
    grid: PdeGrid,
    n: int,
    m: int,
    probe_points,
) -> float:
    """Two-route consistency check of the dynamic programming principle.

    Route one solves from the terminal time straight down to (m-1)/n; route
    two solves to m/n, freezes that profile as new terminal data, and solves
    the remaining 1/n.  Each solve spends the grid's full nt steps on its own
    duration, so the routes discretize differently and the max discrepancy
    over the probe points measures genuine scheme self-consistency.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    v0 = _terminal_samples(phi, grid)
    direct = _solve_profile(v0, gen, grid, 1.0 - (m - 1) / n, grid.nt)
    leg1 = _solve_profile(v0, gen, grid, 1.0 - m / n, grid.nt)
    composed = _solve_profile(leg1, gen, grid, 1.0 / n, grid.nt)
    worst = 0.0
    for x0 in probe_points:
        worst = max(worst, abs(_interp(grid, direct, x0) - _interp(grid, composed, x0)))
    return worst


def _detect_monotonicity(phi: TerminalFunction) -> str:
    xs = np.linspace(-30.0, 30.0, 6001)
    ys = phi.sample(xs)
    diffs = np.diff(ys)
    tol = 1e-12 * (1.0 + float(np.max(np.abs(ys))))
    rises = bool(np.any(diffs > tol))
    falls = bool(np.any(diffs < -tol))
    if rises and falls:
        raise NotMonotone("terminal function changes direction")
    if rises:
        return "increasing"
    if falls:
        return "decreasing"
    return "constant"


def monotone_reduction(phi: TerminalFunction, iv: AmbiguityInterval) -> float:
    """Limit value for globally monotone phi: quadrature against the normal
    law at the extreme drift (lower mean for decreasing phi, upper for
    increasing).  Constant terminals return the constant."""
    direction = _detect_monotonicity(phi)
    if direction == "constant":
        return phi(0.0)
    mu = float(iv.mu_lower) if direction == "decreasing" else float(iv.mu_upper)

    def integrand(t: float) -> float:
        return phi(t) * math.exp(-0.5 * (t - mu) ** 2) / math.sqrt(2.0 * math.pi)

    points = [p for p in phi.breakpoints() if abs(p - mu) < 40.0]
    lo, hi = mu - 40.0, mu + 40.0
    value, _ = quad(
        integrand, lo, hi, points=sorted(points) or None, limit=200,
        epsabs=1e-11, epsrel=1e-11,
    )
    return float(value)
