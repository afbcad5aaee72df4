"""Exact finite-n worst-case expectations by backward dynamic programming.

The one-step conditionals of the ambiguous model can be any element of the
measure set L at every history, and that freedom makes the worst case
recursive: with V_n(s) = phi(s),

    V_{m-1}(s) = max_{q in L} sum_w q(w) V_m(s + increment(w, q)),

and the supremum over the whole rectangular set is V_0(0).  (Infima replace
max by min.)  The statistic variants differ only in the increment, which
:data:`ambiclt.statistics.INCREMENTS` defines once for every route here: a
weight on x/n, a weight on (x - center)/(sigma*sqrt(n)), and the center --
the chosen law's mean (clt, scaled, deviation), the M-rule or M-tilde-rule
mean of :class:`SwitchRule` (special, tilde), or none (lln).  The dynamic
program, the oracle, the product model and Monte Carlo all check their input
and take the step, the scale n*sigma^2, the centers a step may use and the
laws' integer weights from one ``_route``.

A state after m steps is a cell (a, b) of an integer lattice: the sum of
the outcomes is m*x_min + a*unit_x and the sum of the centers m*c_min +
b*unit_c, the units being the gcd lattice units of the outcome values and
of the centers a step can use.  The statistic is then u + w/sqrt(n*sigma^2)
with rational u, w, so paths reaching the same value share one cell -- the
difference between this polynomial lattice and the exponential tree that
:func:`enumerate_worst_case` walks for cross-checking.  Each layer is one
numpy array with a row per reachable a and a column per reachable b, so its
size follows the number of distinct sums, not the fineness of the units.  A
backward step is a few weighted sums of shifted slices (gathers where the
reachable offsets have gaps) and a max (min) over laws.  Float values carry
float64 weights; exact values carry integer numerators over a power of the
probabilities' common denominator.

The switching rule's threshold test and terminal indicators are decided by
a float filter: a cell whose float statistic lies within a small relative
margin of the threshold or an endpoint is handed to the exact comparison of
:class:`ambiclt._exact.ExactValue` (an adaptive predicate in the sense of
Shewchuk), so every decision is the exact one.  A smooth terminal is sampled
once on the whole layer, each cell's statistic being formed as the float of
its exact value is, from integer numerators.

A seeded Monte Carlo policy evaluator provides lower bounds on the suprema,
and :func:`convergence_report` tabulates finite-n values against their
limits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ._exact import FILTER_MARGIN, ExactValue, sqrt_exact, to_fraction
from .measures import MeasureSet, validate_measure_set
from .statistics import INCREMENTS, Increment, SwitchRule, increment
from .terminal import TerminalFunction

VARIANTS = tuple(INCREMENTS)

DEFAULT_N_CAP = 2000
DEFAULT_MAX_STATES = 4_000_000


class StateExplosion(RuntimeError):
    """Reachable-state count exceeded the configured cap."""


@dataclass(frozen=True)
class DpLattice:
    """Per-step value table of one dynamic-program run.

    ``layers[m]`` maps each reachable exact state key (u, w), meaning
    u + w/sqrt(scale), to its continuation value; ``layers[n]`` is the
    terminal payoff itself and ``layers[0]`` holds the single root value.
    ``exact_tests`` counts the cells whose threshold or indicator test the
    float filter left to exact arithmetic.
    """

    variant: str
    n: int
    scale: Fraction
    layers: tuple[dict, ...]
    exact_tests: int = 0

    @property
    def value(self):
        (root_value,) = self.layers[0].values()
        return root_value


# ---------------------------------------------------------------------------
# the route of one statistic


@dataclass(frozen=True)
class _Route:
    """One statistic on one measure set over horizon n, checked once for
    every route that evaluates it.

    ``switching`` is true when a finite switching rule picks each step's
    center; ``centers`` are then [mu_lo, mu_hi], and otherwise one per law:
    the law's mean, 0, or the mean an infinite center freezes the rule on.
    ``weights`` are each law's probabilities as integers over ``D``, their
    common denominator.
    """

    inc: Increment
    n: int
    s: Fraction  # the scale n*sigma^2
    sigma: float
    switching: bool
    centers: list
    values: tuple
    weights: list
    D: int


def _route(L: MeasureSet, variant: str, n: int, rule: SwitchRule | None,
           alpha, beta) -> _Route:
    inc = increment(variant, alpha, beta)
    if n < 1:
        raise ValueError("n must be at least 1")
    iv = validate_measure_set(L)
    s = Fraction(n) * iv.variance_exact()
    switching = False
    if inc.switching:
        # the rule's means center the steps, so they must be the set's own
        if rule is None:
            raise ValueError(f"variant {variant!r} needs a switch rule")
        if rule.exact_mean_pair() != L.mean_bounds():
            raise ValueError(
                f"switch rule means {rule.mean_pair()} differ from the measure "
                f"set's mean bounds {tuple(map(float, L.mean_bounds()))}"
            )
        switching = not math.isinf(rule.center)  # else the rule is frozen
        if switching:
            centers = list(rule.exact_mean_pair())
        else:
            centers = [rule.mean(ExactValue.zero(s), rule.center, inc.tilde)] * len(L.laws)
    else:
        centers = inc.law_centers(L.means())
    D = math.lcm(*(p.denominator for law in L.laws for p in law.probs))
    weights = [[int(p * D) for p in law.probs] for law in L.laws]
    return _Route(inc, n, s, float(iv.sigma), switching, centers, L.values, weights, D)


def _resolve_value_mode(value_mode: str, phi: TerminalFunction, n: int) -> bool:
    """True for exact Fraction values, False for float values."""
    if value_mode == "exact":
        if not phi.supports_exact:
            raise ValueError("exact value mode needs an indicator-kind terminal")
        return True
    if value_mode == "float":
        return False
    if value_mode == "auto":
        return phi.supports_exact and n <= 64
    raise ValueError(f"unknown value_mode {value_mode!r}")


# ---------------------------------------------------------------------------
# the dynamic program


def _lattice_axis(points: Sequence[Fraction]) -> tuple[Fraction, Fraction, list[int]]:
    """(origin, unit, offsets) with point = origin + offset*unit for every
    point, the unit being the largest that makes every offset an integer."""
    origin = min(points)
    diffs = [p - origin for p in points]
    den = math.lcm(*(d.denominator for d in diffs))
    g = math.gcd(*(d.numerator * (den // d.denominator) for d in diffs))
    unit = Fraction(g, den) if g else Fraction(1)
    return origin, unit, [int(d / unit) for d in diffs]


def _advance(offsets, moves: Sequence[int], dtype):
    """The sorted offsets that one more move reaches from ``offsets``, as a
    range when they are the run 0, 1, ..., and for each move where
    ``offsets`` land among them: a slice when they land on a contiguous run,
    else an index array."""
    size, ordered = len(offsets), sorted(moves)
    if isinstance(offsets, range) and all(b - a <= size for a, b in zip(ordered, ordered[1:])):
        # the run, moved by steps no wider than itself, stays a run
        return range(size + ordered[-1]), {d: slice(d, d + size) for d in moves}
    offsets = np.asarray(offsets, dtype=dtype)
    after = np.unique(np.concatenate([offsets + d for d in moves]))
    lands = {}
    for d in moves:
        idx = np.searchsorted(after, offsets + d)
        contiguous = idx[-1] - idx[0] == idx.size - 1
        lands[d] = slice(idx[0], idx[-1] + 1) if contiguous else idx
    return (range(after.size) if after[-1] == after.size - 1 else after), lands


class _Lattice:
    """The states after m steps as a grid of integer offsets.

    Cell (i, j) of layer m holds the paths with sum x = m*x0 + rows[m][i]*ux
    and sum of centers = m*c0 + cols[m][j]*uc, hence the statistic
    u + w/sqrt(s) with u = drift*(sum x)/n and w = noise*(sum x - sum of
    centers).  Outcome i moves the row offset by ``dx[i]``, center c moves the
    column offset by ``dc[c]``.  ``rows[m]`` and ``cols[m]`` are the sorted
    offsets that m steps reach (a range for a gapless run), so a layer's size
    follows the number of distinct sums, however fine the lattice units are.
    """

    def __init__(self, route: _Route, steps: int, max_states: int, keep_layers: bool):
        self.inc, self.n, self.s = route.inc, route.n, route.s
        self.x0, self.ux, self.dx = _lattice_axis(route.values)
        self.c0, self.uc, dc = _lattice_axis(route.centers)
        self.dc = dict(zip(route.centers, dc))
        self.exact_tests = 0
        # int64 offsets unless a fine unit could overflow them
        dtype = object if max(self.dx + dc) * steps >= 2**62 else np.int64
        self.rows, self.cols = [range(1)], [range(1)]
        self._lands = [None]
        # max_states bounds the cells of the layers held at once plus the
        # stored offsets and index arrays.  It counts cells, not bytes: a
        # backward step also holds a few temporaries of a layer's size, and an
        # exact cell is a Python int of about steps*log2(D) bits.
        offsets, cells = 0, 1
        for m in range(1, steps + 1):
            rows, row_lands = _advance(self.rows[-1], self.dx, dtype)
            cols, col_lands = _advance(self.cols[-1], dc, dtype)
            self.rows.append(rows)
            self.cols.append(cols)
            self._lands.append((row_lands, col_lands))
            stored = [rows, cols, *row_lands.values(), *col_lands.values()]
            offsets += sum(v.size for v in stored if isinstance(v, np.ndarray))
            size = math.prod(self.shape(m))
            cells = cells + size if keep_layers else size + math.prod(self.shape(m - 1))
            if offsets + cells > max_states:
                raise StateExplosion(
                    f"the lattice holds over max_states={max_states} cells and "
                    f"offsets by step {m} of {steps}"
                )
        # float form of the statistic, m*k0 + a*ka + b*kb for offsets (a, b),
        # and a bound on the magnitude of the terms it sums
        d = float(self.inc.drift) / self.n
        e = float(self.inc.noise) / math.sqrt(float(self.s))
        x0f, c0f, uxf, ucf = map(float, (self.x0, self.c0, self.ux, self.uc))
        self._coef = (d * x0f + e * (x0f - c0f), (d + e) * uxf, -e * ucf)
        self._mag = ((abs(d) + abs(e)) * (abs(x0f) + abs(c0f)),
                     (abs(d) + abs(e)) * uxf, abs(e) * ucf)

    def shape(self, m: int) -> tuple[int, int]:
        return len(self.rows[m]), len(self.cols[m])

    def child(self, m: int, da, db):
        """The index of the layer-m cell that each cell of layer m - 1 moves
        to on the offset move (da, db)."""
        row_lands, col_lands = self._lands[m]
        i, j = row_lands[da], col_lands[db]
        if isinstance(i, slice) or isinstance(j, slice):
            return i, j
        return np.ix_(i, j)

    def state(self, m: int, i, j) -> ExactValue:
        """The exact, canonical statistic value of cell (i, j) of layer m."""
        sx = m * self.x0 + int(self.rows[m][i]) * self.ux
        sc = m * self.c0 + int(self.cols[m][j]) * self.uc
        return ExactValue.create(*self.inc.exact(sx, sc, self.n), self.s)

    def classify(self, m: int, float_test, exact_test, points):
        """``float_test`` of every cell's float value, except that cells near
        one of ``points`` (finite floats) get ``exact_test`` of their exact
        value."""
        a, b = (np.arange(len(o), dtype=float) if isinstance(o, range) else o.astype(float)
                for o in (self.rows[m], self.cols[m]))
        a, b = a[:, None], b[None, :]
        (k0, ka, kb), (g0, ga, gb) = self._coef, self._mag
        value = m * k0 + a * ka + b * kb
        out = float_test(value)
        mag = m * g0 + a * ga + b * gb
        near = np.zeros(value.shape, dtype=bool)
        for t in points:
            near |= np.abs(value - t) <= FILTER_MARGIN * (mag + abs(t))
        for i, j in zip(*np.nonzero(near)):
            out[i, j] = exact_test(self.state(m, i, j))
        self.exact_tests += int(np.count_nonzero(near))
        return out

    def statistic(self, m: int) -> np.ndarray:
        """``float(self.state(m, i, j))`` of every cell of layer m."""
        drift, noise, n = self.inc.drift, self.inc.noise, self.n
        # u and w of cell (i, j) as c0 + a*ca + b*cb for the offsets (a, b)
        u = (drift * m * self.x0 / n, drift * self.ux / n, Fraction(0))
        w = (noise * m * (self.x0 - self.c0), noise * self.ux, -noise * self.uc)
        rows, cols = self.rows[m], self.cols[m]
        root = sqrt_exact(self.s)
        if root is not None:  # canonical: w is folded into u
            return _rounded([p + q / root for p, q in zip(u, w)], rows, cols)
        return _rounded(u, rows, cols) + _rounded(w, rows, cols) / math.sqrt(float(self.s))


def _rounded(coef, rows, cols) -> np.ndarray:
    """float(c0 + a*ca + b*cb) for rational coefficients over row offsets a
    and column offsets b, as one correctly rounded division of exact
    integers: int64 ones while every integer stays within 2**53, where
    float64 holds them exactly, and Python ones past it."""
    den = math.lcm(*(c.denominator for c in coef))
    k0, ka, kb = (int(c * den) for c in coef)
    amax, bmax = int(rows[-1]), int(cols[-1])  # offsets are sorted
    small = max(den, amax, bmax, abs(k0) + amax * abs(ka) + bmax * abs(kb)) <= 2**53
    dtype = np.int64 if small else object
    a = np.asarray(rows, dtype=dtype)[:, None]
    b = np.asarray(cols, dtype=dtype)[None, :]
    return np.asarray((k0 + a * ka + b * kb) / den, dtype=float)


def _terminal_layer(grid: _Lattice, phi: TerminalFunction | None, m: int,
                    terminal: Callable | None = None) -> np.ndarray:
    """The float payoff of every cell of layer m: ``terminal(u, w)`` of the
    cell's exact key when given, else phi of its statistic, an indicator
    being decided exactly."""
    if terminal is not None:
        V = np.empty(grid.shape(m))
        for a, b in np.ndindex(V.shape):
            V[a, b] = terminal(*grid.state(m, a, b).key())
        return V
    if phi.supports_exact:
        return grid.classify(m, phi.sample, phi.evaluate_exact, phi.breakpoints())
    return phi.sample(grid.statistic(m))


def _dp_value(
    L: MeasureSet,
    phi: TerminalFunction | None,
    n: int,
    variant: str,
    *,
    rule: SwitchRule | None = None,
    alpha=1,
    beta=1,
    minimize: bool = False,
    steps: int | None = None,
    terminal: Callable | None = None,
    value_mode: str = "auto",
    max_states: int = DEFAULT_MAX_STATES,
    n_cap: int | None = None,
    keep_layers: bool = False,
):
    route = _route(L, variant, n, rule, alpha, beta)
    cap = DEFAULT_N_CAP if n_cap is None else n_cap
    if n > cap:
        raise StateExplosion(
            f"n={n} exceeds the {variant} cap of {cap}; pass n_cap to raise it"
        )
    steps = n if steps is None else steps
    exact_values = _resolve_value_mode(value_mode, phi, n) if terminal is None else False
    grid = _Lattice(route, steps, max_states, keep_layers)
    inc, switching, centers, D = route.inc, route.switching, route.centers, route.D

    # Exact values are integer numerators: layer m over D**(steps - m).
    if exact_values:
        weights, dtype = route.weights, object
    else:
        weights, dtype = [[p / D for p in law] for law in route.weights], float

    # The laws grouped by center, so that laws sharing a center share their
    # children: [(b-offset of the center, weights of the laws taking it)].
    def grouped(law_centers):
        return [(grid.dc[c], [pj for pj, cj in zip(weights, law_centers) if cj == c])
                for c in dict.fromkeys(law_centers)]

    if switching:
        lo, hi = (grouped([mu] * len(weights)) for mu in centers)
    else:
        fixed = grouped(centers)

    def upper(m: int) -> np.ndarray:
        """Which cells of layer m - 1 center step m on the upper mean."""
        thr = rule.threshold_exact(m, n)
        return grid.classify(
            m - 1,
            lambda M: rule.upper(M, float(thr), inc.tilde),
            lambda ev: rule.upper(ev, thr, inc.tilde),
            [] if math.isinf(thr) else [float(thr)],
        )

    # forward reachability, for the per-state table only
    if keep_layers:
        reach = [np.ones((1, 1), dtype=bool)]
        uppers = {}
        for m in range(1, steps + 1):
            prev = reach[-1]
            if switching:
                up = uppers[m] = upper(m)
                sources = [(grid.dc[centers[1]], prev & up), (grid.dc[centers[0]], prev & ~up)]
            else:
                sources = [(db, prev) for db, _ in fixed]
            nxt = np.zeros(grid.shape(m), dtype=bool)
            for db, src in sources:
                for da in grid.dx:
                    nxt[grid.child(m, da, db)] |= src
            reach.append(nxt)

    V = _terminal_layer(grid, phi, steps, terminal)
    if exact_values:
        V = V.astype(np.int64).astype(object)

    # backward induction
    better = np.less if minimize else np.greater

    def expectation(V, m: int, groups):
        """Best over the groups' laws of the expected layer-m value, on the
        cells of layer m - 1; terms are added in outcome order."""
        best = None
        for db, law_weights in groups:
            children = [V[grid.child(m, da, db)] for da in grid.dx]
            for pj in law_weights:
                total = np.zeros(grid.shape(m - 1), dtype=dtype)
                for child, p in zip(children, pj):
                    if p:
                        total = total + p * child
                best = total if best is None else np.where(better(total, best), total, best)
        return best

    kept = [V]
    for m in range(steps, 0, -1):
        if switching:
            up = uppers[m] if keep_layers else upper(m)
            V = np.where(up, expectation(V, m, hi), expectation(V, m, lo))
        else:
            V = expectation(V, m, fixed)
        if keep_layers:
            kept.append(V)

    def value(V, m: int, a=0, b=0):
        if exact_values:
            return Fraction(V[a, b], D ** (steps - m))
        return float(V[a, b])

    if not keep_layers:
        return value(V, 0)
    layers = []
    for m, (V, R) in enumerate(zip(reversed(kept), reach)):
        layers.append({grid.state(m, a, b).key(): value(V, m, a, b)
                       for a, b in zip(*np.nonzero(R))})
    return DpLattice(variant, steps, route.s, tuple(layers), grid.exact_tests)


# ---------------------------------------------------------------------------
# public operations


def sup_dp_clt(L: MeasureSet, phi: TerminalFunction, n: int, **kw):
    """Worst-case expectation of phi(statistic) with conditional-mean centering."""
    return _dp_value(L, phi, n, "clt", **kw)


def dp_lattice(
    L: MeasureSet, phi: TerminalFunction, n: int, variant: str = "clt", **kw
) -> DpLattice:
    """Run a dynamic program and return its full per-step value table."""
    return _dp_value(L, phi, n, variant, keep_layers=True, **kw)


def sup_dp_scaled(L: MeasureSet, phi: TerminalFunction, n: int, alpha, beta, **kw):
    """The (alpha, beta)-scaled worst case; (1, 1) is sup_dp_clt, (1, 0) the
    pure deviation statistic."""
    return _dp_value(L, phi, n, "scaled", alpha=alpha, beta=beta, **kw)


def sup_dp_deviation(L: MeasureSet, phi: TerminalFunction, n: int, **kw):
    """Worst case for the pure (sqrt n)-scaled deviation statistic."""
    return _dp_value(L, phi, n, "deviation", **kw)


def sup_dp_special(L: MeasureSet, phi: TerminalFunction, n: int, rule: SwitchRule, **kw):
    """Worst case of phi(M_{n,n}) for the explicit switching statistic."""
    return _dp_value(L, phi, n, "special", rule=rule, **kw)


def inf_dp_special_tilde(L: MeasureSet, phi: TerminalFunction, n: int, rule: SwitchRule, **kw):
    """Best case of phi(M~_{n,n}) for the M-tilde switching statistic."""
    return _dp_value(L, phi, n, "tilde", rule=rule, minimize=True, **kw)


def sup_dp_lln(L: MeasureSet, phi: TerminalFunction, n: int, **kw):
    """Worst-case expectation of phi(sample mean)."""
    return _dp_value(L, phi, n, "lln", **kw)


def band_probability_sup(L: MeasureSet, n: int, m: int, delta, rule: SwitchRule) -> float:
    """Worst-case probability that M~_{m-1,n} sits within delta of its
    switching threshold (the band event of the switching-gap diagnostic).

    The band is the closed indicator of [threshold - delta, threshold +
    delta] with the exact rational endpoints of
    :meth:`SwitchRule.threshold_exact` and ``delta``, so the float filter of
    the dynamic program decides every terminal cell exactly.  ``delta`` must
    be positive.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    d = to_fraction(delta)
    if not d > 0:
        raise ValueError("delta must be positive")
    if math.isinf(rule.center):
        return 0.0
    thr = rule.threshold_exact(m, n)
    band = TerminalFunction.indicator(thr - d, thr + d)
    return _dp_value(L, band, n, "tilde", rule=rule, steps=m - 1, value_mode="float")


# ---------------------------------------------------------------------------
# exhaustive oracle


def enumerate_worst_case(
    L: MeasureSet,
    phi: TerminalFunction,
    n: int,
    variant: str = "clt",
    *,
    rule: SwitchRule | None = None,
    alpha=1,
    beta=1,
    minimize: bool = False,
) -> Fraction:
    """Brute-force worst case by walking the full (law, outcome) decision
    tree with no state merging; exponential, for cross-checking at small n.
    Laws that share a center share the children of a node."""
    route = _route(L, variant, n, rule, alpha, beta)
    if n > 10:
        raise ValueError("enumeration is exponential; use n <= 10")
    if not phi.supports_exact:
        raise ValueError("enumeration oracle needs an indicator-kind terminal")
    inc, D = route.inc, route.D
    better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)

    def rec(m: int, M: ExactValue) -> Fraction:
        if m == n:
            return phi.evaluate_exact(M)
        step = m + 1
        centers = route.centers
        if inc.switching:
            mu = rule.mean(M, rule.threshold_exact(step, n), inc.tilde)
            centers = [mu] * len(route.weights)
        children: dict = {}  # center -> child values by outcome
        best = None
        for c, pj in zip(centers, route.weights):
            if c not in children:
                children[c] = [rec(step, M.shift(*inc.exact(x, c, n))) for x in route.values]
            total = Fraction(sum(p * child for child, p in zip(children[c], pj)), D)
            if best is None or better(total, best):
                best = total
        return best

    return rec(0, ExactValue.zero(route.s))


# ---------------------------------------------------------------------------
# product model (no history dependence) — exploratory comparison


def product_model_value(
    L: MeasureSet, phi: TerminalFunction, n: int, variant: str = "clt", *, alpha=1, beta=1
) -> float:
    """Best value over product measures: one law per coordinate, the same at
    every history.  Increments are exchangeable, so only the multiset of law
    choices matters and each candidate is evaluated by exact convolution.

    The states are the cells of the dynamic program's lattice, bounded by
    its default ``max_states`` (past it :class:`StateExplosion`).  A
    multiset of law choices fixes the sum of the centers, hence one column
    of the terminal layer, and the sum of the outcomes is distributed over
    that column's rows.  A distribution holds exact integer numerators over D**m after m
    steps, D the common denominator of the probabilities, and the payoffs
    enter as exact Fractions of their floats, so every candidate's value is
    exact and the best one is rounded once.  The candidates are the
    compositions of n over the laws in lexicographic order, each applying
    law 0 first, then law 1, and so on; compositions that begin with the
    same law choices share the distribution of that prefix.
    """
    if increment(variant).switching:
        raise ValueError("product model applies to the non-switching variants")
    route = _route(L, variant, n, None, alpha, beta)
    k = len(L.laws)
    n_multisets = math.comb(n + k - 1, k - 1)
    if n_multisets * n > 200_000:
        raise ValueError("too many law multisets; reduce n or the law count")
    grid = _Lattice(route, n, DEFAULT_MAX_STATES, keep_layers=False)
    payoff = np.frompyfunc(Fraction, 1, 1)(_terminal_layer(grid, phi, n))
    columns = dict(zip((int(b) for b in grid.cols[n]), payoff.T))

    def step(dist, j: int):
        """(steps taken, column offset, numerators over the rows) after one
        more step of law j."""
        m, col, P = dist
        row_lands = grid._lands[m + 1][0]
        nxt = np.zeros(len(grid.rows[m + 1]), dtype=object)
        for da, p in zip(grid.dx, route.weights[j]):
            if p:  # a move lands distinct rows on distinct rows
                nxt[row_lands[da]] += p * P
        return m + 1, col + grid.dc[route.centers[j]], nxt

    def expectation(dist):
        _, col, P = dist
        return np.dot(P, columns[col])

    start = (0, 0, np.ones(1, dtype=object))
    best = max(_composition_values(start, 0, n, k, step, expectation))
    return float(Fraction(best, route.D ** n))


# at module level: a nested recursive generator would hold its closure, and
# with it the lattice and payoffs of the call, in a reference cycle until the
# cyclic garbage collector ran
def _composition_values(dist, j: int, left: int, k: int, step, expectation):
    """The value of each composition of ``left`` over laws j, j + 1, ...,
    k - 1 applied after ``dist``, in lexicographic order."""
    if j == k - 1:
        for _ in range(left):
            dist = step(dist, j)
        yield expectation(dist)
        return
    for first in range(left + 1):
        if first:
            dist = step(dist, j)
        yield from _composition_values(dist, j + 1, left - first, k, step, expectation)


# ---------------------------------------------------------------------------
# drift policies and Monte Carlo evaluation


@dataclass(frozen=True)
class DriftPolicy:
    """History-dependent choice of a law index per step.

    ``fn(m, M_array, n) -> int array`` maps the step index, the current
    statistic values and the horizon to law indices; policies must be total.
    """

    fn: Callable[[int, np.ndarray, int], np.ndarray]
    label: str

    @classmethod
    def constant(cls, index: int) -> "DriftPolicy":
        return cls(lambda m, M, n: np.full(M.shape, index, dtype=int),
                   f"constant[{index}]")

    @classmethod
    def threshold(cls, L: MeasureSet, rule: SwitchRule, favorable_below: bool = True) -> "DriftPolicy":
        """Pick the max-mean law when M_{m-1} is at or below the switching
        threshold (mirroring the M-rule), or the min-mean law — reversed when
        ``favorable_below`` is False."""
        means = [float(m) for m in L.means()]
        i_hi = max(range(len(means)), key=means.__getitem__)
        i_lo = min(range(len(means)), key=means.__getitem__)
        lo_idx, hi_idx = (i_lo, i_hi) if favorable_below else (i_hi, i_lo)

        def fn(m, M, n):
            return lo_idx + (hi_idx - lo_idx) * rule.upper(M, rule.threshold(m, n))

        label = "threshold" if favorable_below else "anti-threshold"
        return cls(fn, label)

    @classmethod
    def alternating(cls, n_laws: int) -> "DriftPolicy":
        return cls(lambda m, M, n: np.full(M.shape, (m - 1) % n_laws, dtype=int),
                   "alternating")

    @classmethod
    def from_table(cls, table: dict[int, int], default: int = 0) -> "DriftPolicy":
        """Law index per step from a table keyed by m (gaps use ``default``)."""
        def fn(m, M, n):
            return np.full(M.shape, table.get(m, default), dtype=int)

        return cls(fn, "table")

    @classmethod
    def from_callable(cls, fn: Callable[[int, np.ndarray, int], np.ndarray], label: str = "custom") -> "DriftPolicy":
        return cls(fn, label)


def builtin_policies(L: MeasureSet, rule: SwitchRule) -> list[DriftPolicy]:
    """The five stock policies used by the sandwich checks."""
    k = len(L.laws)
    return [
        DriftPolicy.constant(0),
        DriftPolicy.constant(min(1, k - 1)),
        DriftPolicy.threshold(L, rule, favorable_below=True),
        DriftPolicy.threshold(L, rule, favorable_below=False),
        DriftPolicy.alternating(k),
    ]


# paths simulated at once: the draws held are one float64 array of this many
# rows by n, whatever the path count.  Each step copies its strided column of
# uniforms once into a contiguous buffer; a transposed copy of the whole chunk
# would make every column contiguous but holds a second chunk of draws (13 MB
# at n = 200), about a tenth of a 100k-path run's peak memory.
_CHUNK_PATHS = 8192


def simulate_statistic_values(
    L: MeasureSet,
    policy: DriftPolicy,
    variant: str,
    n: int,
    paths: int,
    seed: int,
    *,
    rule: SwitchRule | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> np.ndarray:
    """Terminal statistic values for seeded sample paths under a policy.

    Randomness comes from one counter-based Philox stream keyed by
    ``seed``: path i takes uniforms i*n ... i*n + n - 1 of the stream, its
    step m the (m-1)-th of them.  Paths are simulated in chunks of
    consecutive rows, so memory is bounded by the chunk, not by ``paths``.
    The policy sees one chunk's statistic values at a time, so a policy
    that decides each path from its own value (every builtin one does)
    gives the same values bit for bit in any chunking.  For the k laws of
    L it must return indices in [0, k); any other index raises ValueError.
    Only the chosen law's outcome is drawn: the inverse CDF of that law at
    the uniform.

    A step of :meth:`Increment.advance` adds a drift term that depends on
    the outcome only, then a noise term that depends on the outcome and the
    center: the rule's lower or upper mean while a finite switching rule
    picks it, the chosen law's center otherwise.  :meth:`Increment.terms`
    tabulates both once per call, so a step adds two table entries to M in
    ``advance``'s order and the values are the ones ``advance`` gives, bit
    for bit.
    """
    route = _route(L, variant, n, rule, alpha, beta)
    if paths < 1:
        raise ValueError("paths must be at least 1")
    k = len(L.laws)
    # center j: the lower (0) or the upper (1) mean when switching, else law j's
    centers = np.array([float(c) for c in route.centers])
    width = len(centers)
    values = np.array([float(v) for v in route.values])[:, None]
    # row-major by outcome: the entry of (outcome, center j) is outcome*width + j
    # (lln has no noise term: its entries are zeros, and adding a zero leaves
    # M as it is, M starting at +0.0 and so never being -0.0)
    step_x, step_c = (a.ravel() for a in route.inc.terms(values, centers, n, route.sigma))
    # column c: every law's CDF at outcome c; the last column (1) is never needed
    first, *rest = np.array([np.cumsum([p / route.D for p in law])
                             for law in route.weights]).T[:-1]

    rng = np.random.Generator(np.random.Philox(key=seed))
    chunk = min(_CHUNK_PATHS, paths)
    draws = np.empty((chunk, n))  # one row per path, reused by every chunk
    u_buf = np.empty(chunk)  # the step's uniforms, contiguous
    key_buf = np.empty(chunk, dtype=np.intp)  # the step's outcome, then its table entry
    out = np.empty(paths)
    for start in range(0, paths, chunk):
        rows = min(chunk, paths - start)
        uniforms, u, key = draws[:rows], u_buf[:rows], key_buf[:rows]
        rng.random(out=uniforms)
        M = out[start:start + rows]
        M[:] = 0.0
        for m in range(1, n + 1):
            idx = np.asarray(policy.fn(m, M, n), dtype=np.intp)
            if idx.min() < 0 or idx.max() >= k:
                raise ValueError(f"policy {policy.label!r} chose a law index outside "
                                 f"[0, {k}) at step {m}")
            np.copyto(u, uniforms[:, m - 1])
            # the outcome: the count of the chosen law's cdf entries at or below u
            np.less_equal(first[idx], u, out=key)
            for cdf in rest:
                key += cdf[idx] <= u
            j = rule.upper(M, rule.threshold(m, n), route.inc.tilde) if route.switching else idx
            M += step_x[key]
            key *= width
            key += j
            M += step_c[key]
    return out


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    paths: int
    seed: int


def mc_policy_value(
    L: MeasureSet,
    policy: DriftPolicy,
    phi: TerminalFunction,
    variant: str,
    n: int,
    paths: int,
    seed: int,
    *,
    rule: SwitchRule | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> McEstimate:
    """Seeded Monte Carlo value of a policy: an unbiased lower bound on the
    matching supremum (upper bound on the infimum) up to sampling error."""
    M = simulate_statistic_values(
        L, policy, variant, n, paths, seed, rule=rule, alpha=alpha, beta=beta
    )
    vals = phi.sample(M)
    est = float(np.mean(vals))
    spread = float(np.std(vals, ddof=1)) if paths > 1 else 0.0
    return McEstimate(est, spread / math.sqrt(paths), paths, seed)


# ---------------------------------------------------------------------------
# convergence reporting


@dataclass(frozen=True)
class ReportRow:
    n: int
    value: float
    gap: float
    runtime: float
    product_value: float | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    variant: str
    limit_reference: float
    rows: tuple[ReportRow, ...]
    gaps_monotone: bool


def convergence_report(
    L: MeasureSet,
    phi: TerminalFunction,
    n_list: Sequence[int],
    limit_reference: float,
    *,
    variant: str = "special",
    rule: SwitchRule | None = None,
    alpha=1,
    beta=1,
    minimize: bool = False,
    value_mode: str = "float",
    include_product: bool = False,
    n_cap: int | None = None,
) -> ConvergenceReport:
    """Finite-n worst-case values against a limit, with gap monotonicity
    flagged (not enforced: no convergence rate is asserted)."""
    if list(n_list) != sorted(n_list) or len(set(n_list)) != len(n_list):
        raise ValueError("n_list must be strictly increasing")
    rows = []
    for n in n_list:
        start = time.perf_counter()
        value = float(
            _dp_value(
                L, phi, n, variant, rule=rule, alpha=alpha, beta=beta,
                minimize=minimize, value_mode=value_mode, n_cap=n_cap,
            )
        )
        elapsed = time.perf_counter() - start
        product = None
        if include_product and not increment(variant).switching:
            product = product_model_value(L, phi, n, variant, alpha=alpha, beta=beta)
        rows.append(
            ReportRow(n, value, abs(value - limit_reference), elapsed, product)
        )
    gaps = [r.gap for r in rows]
    monotone = all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    return ConvergenceReport(variant, float(limit_reference), tuple(rows), monotone)
