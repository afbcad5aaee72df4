"""Nonlinear-expectation values by solving the drift-control parabolic PDE.

The limit object for a bounded terminal function phi solves, backward on
[0, 1],

    du/dt + (1/2) d2u/dx2 + g_eps(du/dx) = 0,      u(1, x) = phi(x),

with generator g_eps(z) = kappa*(sqrt(z^2 + eps^2) - eps), the smooth
approximation of kappa*|z| whose value at 0 vanishes and whose slope is
bounded by kappa; it is evaluated as kappa*max(sqrt(z*z + eps*eps) - eps, 0).
The value at (0, x0) is the nonlinear expectation of phi(x0 + B_1) under
mean ambiguity of half-width kappa.

Time marching is implicit in the diffusion and explicit in the gradient
nonlinearity.  The diffusion matrix is constant.  With its first and last
(zero-slope ghost-node) rows halved, which is exact in binary, it is
symmetric positive definite, so each march factors it once as LDL^T (LAPACK
``dpttrf``) and every step is one tridiagonal solve (``dpttrs``) against a
right-hand side whose end entries are halved likewise.  The several eps of
:func:`epsilon_extrapolate` march together as the columns of one block, one
right-hand side each, in buffers allocated once per march.  Gradients are
centered differences by default, with a monotone upwind fallback for a
column whose discrete min/max bound is ever violated; that column alone is
re-marched.  Artificial boundaries use zero-slope conditions, which is
consistent with terminal data that flatten at infinity.  A monotone terminal
needs no solve: its limit is ``closed_form.monotone_reduction``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

# the monotone limit is a formula in closed_form; it stays reachable here
# because the benchmark's workloads call pde.monotone_reduction
from .closed_form import NotMonotone, monotone_reduction  # noqa: F401
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
    "UnstableGrid",
    "OutOfDomain",
]


class UnstableGrid(ValueError):
    """Grid violates the explicit gradient-term step bound, or even the
    monotone upwind march breaks the discrete max principle on it."""


class OutOfDomain(ValueError):
    """Evaluation point lies outside the spatial grid."""


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
        """g_eps(z) = kappa*(sqrt(z^2 + eps^2) - eps); kappa*|z| at eps = 0."""
        return _generator(z, self.kappa, self.epsilon)[()]  # a scalar for a scalar z


def _generator(z: np.ndarray, kappa: float, eps, out: np.ndarray | None = None) -> np.ndarray:
    """kappa*max(sqrt(z*z + eps*eps) - eps, 0), eps broadcast against z,
    written into ``out`` when given (it may be ``z`` itself).

    sqrt(z*z) is |z| exactly, so eps = 0 gives kappa*|z| bit for bit.  The
    clamp keeps g(0) exactly zero, so constants stay fixed points, even when
    eps*eps underflows, and keeps g >= 0.  Below |z| of about 1e-154, z*z
    underflows and g is computed as if z were 0 there; above |z| of about
    1.3e154, z*z overflows and g is inf where kappa*|z| is finite.
    """
    if out is None:
        out = np.empty(np.broadcast(z, eps).shape)
    np.multiply(z, z, out=out)
    out += eps * eps
    np.sqrt(out, out=out)
    out -= eps
    np.maximum(out, 0.0, out=out)
    out *= kappa
    return out


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


def _tridiagonal(nx: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """(I - dt/2 * D2) with zero-slope boundaries, first and last rows halved:
    main and off-diagonal of the symmetric positive definite system.

    The ghost-node reflection doubles the outer off-diagonal entry of the two
    end rows to -r; halving those rows makes them (1 + r)/2 and -r/2, so the
    matrix is symmetric and strictly diagonally dominant, ready for dpttrf.
    A right-hand side takes the same halving of its end entries.
    """
    d = np.full(nx, 1.0 + r)
    d[[0, -1]] *= 0.5
    return d, np.full(nx - 1, -0.5 * r)


def _march(
    v0: np.ndarray,
    kappa: float,
    eps: np.ndarray,
    ldl: tuple,
    dx: float,
    dt: float,
    steps: int,
    scheme: str,
) -> tuple[np.ndarray, np.ndarray]:
    """March v0 backward ``steps`` times, once per entry of ``eps``, as the
    columns of one Fortran-ordered (nx, k) block solved against the LDL^T
    factors ``ldl`` of the halved system of :func:`_tridiagonal`.  Returns
    the block and a mask of the columns that kept the discrete max principle
    after every step; every column marches to the end, and the entries of a
    masked-out one are meaningless."""
    lo = float(np.min(v0))
    hi = float(np.max(v0))
    slack = 1e-8 * (1.0 + abs(hi) + abs(lo))
    k = len(eps)
    out = np.tile(v0, (k, 1)).T
    # the step is written in place: gradient, then generator, then the
    # right-hand side, which dpttrs overwrites with the next solution
    rhs = np.empty_like(out, order="F")
    diff = np.empty((len(v0) - 1, k), order="F") if scheme == "upwind" else None
    ok = np.ones(k, dtype=bool)
    for _ in range(steps):
        if scheme == "centered":
            np.subtract(out[2:], out[:-2], out=rhs[1:-1])
            rhs[1:-1] /= 2.0 * dx
            rhs[0] = rhs[-1] = 0.0
        else:  # monotone upwind: slope = max(-D^-, D^+, 0)
            np.subtract(out[1:], out[:-1], out=diff)
            diff /= dx
            np.negative(diff[:-1], out=rhs[1:-1])
            np.maximum(rhs[1:-1], diff[1:], out=rhs[1:-1])
            rhs[0] = diff[0]
            rhs[-1] = -diff[-1]
            np.maximum(rhs, 0.0, out=rhs)
        _generator(rhs, kappa, eps, out=rhs)
        rhs *= dt
        rhs += out
        rhs[0] *= 0.5
        rhs[-1] *= 0.5
        rhs, _ = scipy.linalg.lapack.dpttrs(*ldl, rhs, overwrite_b=True)
        out, rhs = rhs, out
        ok &= ~((out.min(axis=0) < lo - slack) | (out.max(axis=0) > hi + slack))
        if not ok.any():
            break
    return out, ok


def _solve_profiles(
    v0: np.ndarray, kappa: float, eps, grid: PdeGrid, duration: float, steps: int
) -> np.ndarray:
    """u(0, .) from terminal data v0 over ``duration``, one column per eps.

    The matrix is factored once; the columns march centered as one block,
    and a column that breaks the max principle is re-marched alone with the
    monotone upwind scheme from v0, leaving the other columns as they are;
    if that breaks it too, :class:`UnstableGrid` is raised.
    """
    eps = np.asarray(eps, dtype=float)
    if steps == 0 or duration == 0.0:
        return np.tile(v0, (len(eps), 1)).T
    dx = grid.dx
    dt = duration / steps
    if kappa * dt > dx:
        raise UnstableGrid(
            f"dt*kappa = {kappa * dt:.3g} exceeds dx = {dx:.3g}; refine nt"
        )
    *ldl, info = scipy.linalg.lapack.dpttrf(*_tridiagonal(grid.nx, dt / (dx * dx)))
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal factorization failed (info={info})")
    # at kappa = 0 the generator is identically zero, so every column is the
    # same march: one is marched and repeated
    marched = eps[:1] if kappa == 0 else eps
    block, ok = _march(v0, kappa, marched, ldl, dx, dt, steps, "centered")
    for j in np.flatnonzero(~ok):
        column, fine = _march(v0, kappa, marched[j:j + 1], ldl, dx, dt, steps, "upwind")
        if not fine[0]:
            raise UnstableGrid(f"the upwind re-march of eps = {float(marched[j])!r} "
                               "broke the max principle; refine nt")
        block[:, j] = column[:, 0]
    return np.tile(block, (1, len(eps))) if kappa == 0 else block


def _solve_profile(
    v0: np.ndarray, gen: GeneratorSpec, grid: PdeGrid, duration: float, steps: int
) -> np.ndarray:
    return _solve_profiles(v0, gen.kappa, [gen.epsilon], grid, duration, steps)[:, 0]


def _terminal_samples(phi: TerminalFunction, grid: PdeGrid) -> np.ndarray:
    # sharp indicators are always mollified before solving
    if phi.supports_exact:
        phi = TerminalFunction.smoothed_indicator(phi.a, phi.b, 0.05)
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

    GeneratorSpec(kappa, eps[-1])  # validates kappa
    profiles = _solve_profiles(_terminal_samples(phi, grid), kappa, eps, grid, 1.0, grid.nt)
    values = [_interp(grid, profiles[:, j], x0) for j in range(len(eps))]
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
