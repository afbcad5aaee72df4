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
size follows the number of distinct sums, not the fineness of the units.
Float values carry float64 weights; exact values carry integer numerators
over a power of the probabilities' common denominator, int64 ones while the
largest a step can form fits in int64 and Python ints from the first layer
where it may not.

The statistic rises with the row offset, so within a column the cells that
take the upper mean are a prefix of the rows under the M-rule and a suffix
under the M-tilde rule, and a terminal indicator holds on a run of rows.
Each column's boundaries, every step's threshold and the indicator's
endpoints, are located from the float statistic in one pass, and only the
cells whose float statistic lies within a small relative margin of the
threshold or an endpoint take the exact test: the sign of the statistic
minus the threshold, from the integer numerators of its affine form in (m,
a, b), in Python ints.  This is an adaptive predicate in the sense of
Shewchuk, so every decision is the exact one.  The pass reads every layer's
size from one array of them and builds each column's offsets, and the
window of rows around its boundary, as flat index arrays: an offset on a
gapless run is its index, and a gapped layer's offsets come from one array
of all such offsets.  So it takes a fixed number of array operations for
any number of layers, in chunks of columns that bound its temporaries.  A
smooth terminal is sampled once on the whole layer, each cell's statistic
being formed as the float of its exact value is, from integer numerators.

Every variant takes one backward step.  An outcome moves a cell along its
column and a center along its row, so a law's expectation of layer m is
formed once, over every column of layer m: a weighted sum of row-shifted
slices of the layer (gathers where the reachable sums have gaps), with
every law on a leading axis, in row blocks that stay in cache.  A cell of
layer m - 1 reads each law at that law's center's column and takes the
best (max, or min) over the laws, in one reduction per block.  Where every
law takes one center, the best is taken before the column is read: so
under a switching rule, whose laws all take the step's one center, one
expectation serves both means, the rows of a column up to its boundary
reading it at the ``first`` mean's column and the others at the ``rest``
mean's.

A seeded Monte Carlo policy evaluator provides lower bounds on the suprema,
and :func:`convergence_report` tabulates finite-n values against their
limits.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property
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
# columns whose switching or indicator boundary is located at once
_SPLIT_COLUMNS = 1 << 16
# cells of a layer that a backward step sums at once, each law's sum and
# term together a few hundred kB
_BLOCK_CELLS = 1 << 14


class StateExplosion(RuntimeError):
    """Reachable-state count exceeded the configured cap."""


@dataclass(frozen=True)
class DpLattice:
    """Per-step value table of one dynamic-program run.

    ``layers[m]`` maps each reachable exact state key (u, w), meaning
    u + w/sqrt(scale), to its continuation value; the last layer is the
    terminal payoff and ``layers[0]`` holds the single root value.
    ``exact_tests`` counts the exact sign tests the float filter left to
    integer arithmetic: one per cell and threshold or indicator endpoint.
    """

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
    ``values`` are the outcomes of positive probability, and ``weights`` each
    law's probabilities of them as integers over ``D``, their common
    denominator.
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
        bounds = (iv.mu_lower, iv.mu_upper)
        if rule.exact_mean_pair() != bounds:
            raise ValueError(
                f"switch rule means {rule.mean_pair()} differ from the measure "
                f"set's mean bounds {tuple(map(float, bounds))}"
            )
        switching = not math.isinf(rule.center)  # else the rule is frozen
        if switching:
            centers = list(rule.exact_mean_pair())
        else:
            centers = [rule.mean(ExactValue.zero(s), rule.center, inc.tilde)] * len(L.laws)
    else:
        centers = inc.law_centers(L.means())
    # only outcomes of positive probability: the laws of a set share their zeros
    keep = [i for i, p in enumerate(L.laws[0].probs) if p]
    D = math.lcm(*(p.denominator for law in L.laws for p in law.probs))
    weights = [[law.probs[i].numerator * (D // law.probs[i].denominator) for i in keep]
               for law in L.laws]
    return _Route(inc, n, s, float(iv.sigma), switching, centers,
                  tuple(L.values[i] for i in keep), weights, D)


def _resolve_value_mode(value_mode: str, phi: TerminalFunction, n: int) -> bool:
    """True for exact Fraction values, False for float values."""
    if value_mode == "exact":
        if not phi.supports_exact:
            raise ValueError("exact value mode needs a sharp indicator terminal")
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
    den = math.lcm(*(p.denominator for p in points))
    ints = [p.numerator * (den // p.denominator) for p in points]
    low = min(ints)
    g = math.gcd(*(i - low for i in ints))
    unit = Fraction(g, den) if g else Fraction(1)
    return Fraction(low, den), unit, [(i - low) // (g or 1) for i in ints]


def _advance(offsets, moves: Sequence[int], gap: int, dtype):
    """The sorted offsets that one more move reaches from ``offsets``, as a
    range when they are the run 0, 1, ..., and for each move where
    ``offsets`` land among them: a slice when they land on a contiguous run,
    else an index array.  ``gap`` is the widest gap between sorted moves.
    The landings are None when a run stays a run: move d lands entry i on
    i + d."""
    size = len(offsets)
    if isinstance(offsets, range) and gap <= size:
        # the run, moved by steps no wider than itself, stays a run
        return range(size + max(moves)), None
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

    An outcome moves a cell along its column and a center along its row:
    :meth:`landing` gives where the rows or the columns of layer m - 1 land
    in layer m on one move, so a backward step can form a law's expectation
    over every column of layer m once and read each cell's center from it.
    A run that stays a run stores no landing: move d takes entry i to i + d.

    The layers are built step by step only while an axis has gaps or may
    open some.  Once both axes are runs that stay runs, every later layer
    is a run one widest move longer on each axis, so the rest of the
    lattice, and its count against ``max_states``, follows in closed form.
    Each layer's row and column counts are kept in one array, and the
    offsets of the gapped layers of each axis in one array, which the
    layers' own offsets are views of: a split pass reads any layer's offsets
    with a few array operations, an offset on a run being its index.
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
        self._lands = [(None, None)]
        # max_states bounds the cells of the layers held at once plus the
        # stored offsets and index arrays.  It counts cells, not bytes: a
        # backward step also holds a few temporaries of a layer's size, and an
        # exact cell is an int64 until the first layer whose numerators may
        # not fit in it, then a Python int of up to steps*log2(D) bits.
        offsets, cells, size = 0, 1, 1
        row_gap, col_gap = (max((b - a for a, b in zip(d, d[1:])), default=0)
                            for d in (sorted(self.dx), sorted(dc)))
        gapped = ([], [])  # the layers whose rows, or columns, have gaps
        m = 0
        while m < steps:
            m += 1
            rows, row_lands = _advance(self.rows[-1], self.dx, row_gap, dtype)
            cols, col_lands = _advance(self.cols[-1], dc, col_gap, dtype)
            self.rows.append(rows)
            self.cols.append(cols)
            self._lands.append((row_lands, col_lands))
            if not (isinstance(rows, range) and isinstance(cols, range)):
                stored = [rows, cols, *(row_lands or {}).values(), *(col_lands or {}).values()]
                offsets += sum(v.size for v in stored if isinstance(v, np.ndarray))
                for axis, layer in enumerate((rows, cols)):
                    if not isinstance(layer, range):
                        gapped[axis].append(m)
            prev, size = size, len(rows) * len(cols)
            cells = cells + size if keep_layers else size + prev
            if offsets + cells > max_states:
                raise StateExplosion(
                    f"the lattice holds over max_states={max_states} cells and "
                    f"offsets by step {m} of {steps}"
                )
            if row_lands is None and col_lands is None:
                break  # both axes are runs that stay runs
        # layer m + k is range(rows + k*widest row move) by range(columns +
        # k*widest column move)
        sizes = np.array([[len(r), len(c)] for r, c in zip(self.rows, self.cols)])
        run = sizes[-1] + np.multiply.outer(np.arange(1, steps - m + 1), [max(self.dx), max(dc)])
        held = run.prod(axis=1)
        held = cells + held.cumsum() if keep_layers else held + np.concatenate([[size], held[:-1]])
        over = np.flatnonzero(offsets + held > max_states)
        if over.size:
            raise StateExplosion(
                f"the lattice holds over max_states={max_states} cells and "
                f"offsets by step {m + 1 + over[0]} of {steps}"
            )
        self.rows += map(range, run[:, 0].tolist())
        self.cols += map(range, run[:, 1].tolist())
        self._lands += [(None, None)] * len(run)
        self._size = np.concatenate([sizes, run]).T  # (rows, columns) of each layer
        # each axis's gapped layers' offsets end to end, then a 0, and where
        # each layer starts among them (-1 on a run); the layers become views
        self._flat, self._start = [], []
        for axis, layers in enumerate((self.rows, self.cols)):
            ms = gapped[axis]
            flat = np.concatenate([*(layers[k] for k in ms), np.zeros(1, dtype)])
            start = np.full(steps + 1, -1)
            for k, first in zip(ms, itertools.accumulate((len(layers[k]) for k in ms), initial=0)):
                start[k] = first
                layers[k] = flat[first:first + len(layers[k])]
            self._flat.append(flat)
            self._start.append(start)
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

    def landing(self, m: int, axis: int, d, r0: int = 0, r1: int | None = None):
        """Where entries r0..r1-1 of layer m - 1's rows (axis 0) or columns
        (axis 1) land in layer m on the offset move d: a slice, or an index
        array where they land with gaps."""
        if r1 is None:
            r1 = self.shape(m - 1)[axis]
        lands = self._lands[m][axis]
        if lands is None:
            return slice(d + r0, d + r1)
        i = lands[d]
        return slice(i.start + r0, i.start + r1) if isinstance(i, slice) else i[r0:r1]

    def state(self, m: int, i, j) -> ExactValue:
        """The exact, canonical statistic value of cell (i, j) of layer m."""
        sx = m * self.x0 + int(self.rows[m][i]) * self.ux
        sc = m * self.c0 + int(self.cols[m][j]) * self.uc
        return ExactValue.create(*self.inc.exact(sx, sc, self.n), self.s)

    def _offsets(self, axis: int, m: np.ndarray, i: np.ndarray) -> np.ndarray:
        """The offsets at entries i of layer m's rows (axis 0) or columns
        (axis 1), i's last axis running along m: i itself on a run, else the
        layer's sorted offsets at i."""
        flat = self._flat[axis]
        offsets = i.astype(flat.dtype)
        if flat.size > 1:  # some layers have gaps: read their offsets
            start = self._start[axis][m]
            gapped = start >= 0
            offsets[..., gapped] = flat[start[gapped] + i[..., gapped]]
        return offsets

    def _rows_below(self, m: np.ndarray, x: np.ndarray) -> np.ndarray:
        """How many row offsets of layer m lie below x, comparing their
        floats, x's last axis running along m."""
        # a run's offsets are 0, 1, ..., size - 1
        count = np.minimum(np.maximum(np.ceil(x), 0), self._size[0][m]).astype(np.intp)
        flat, start = self._flat[0], self._start[0]
        if flat.size > 1:  # some layers have gaps: search their offsets
            # as layer + 1j*offset, since complex numbers sort by their real
            # part first: one search finds an offset among its layer's rows
            layers = np.flatnonzero(start >= 0)
            keys = np.repeat(layers, self._size[0][layers]) + 1j * flat[:-1].astype(float)
            start = start[m]
            gapped = start >= 0
            count[..., gapped] = (np.searchsorted(keys, m[gapped] + 1j * x[..., gapped])
                                  - start[gapped])
        return count

    @cached_property
    def _integer_form(self):
        """The statistic in integers: u = (m*U0 + a*Ua)/du and w = (m*W0 +
        a*Wa + b*Wb)/dw for offsets (a, b), and sqrt(s) = sqrt(R)/s.denominator
        with R's integer root, or None."""
        # every rational as (numerator, denominator), to form the
        # coefficients in integers: u's are drift*x0/n and drift*ux/n, w's
        # noise*(x0 - c0), noise*ux and -noise*uc
        (dn, dd), (nn, nd), (x0, x0d), (ux, uxd), (c0, c0d), (uc, ucd) = (
            (c.numerator, c.denominator)
            for c in (self.inc.drift, self.inc.noise, self.x0, self.ux, self.c0, self.uc))
        u = _common_denominator((dn * x0, dd * x0d * self.n), (dn * ux, dd * uxd * self.n))
        w = _common_denominator((nn * (x0 * c0d - c0 * x0d), nd * x0d * c0d), (nn * ux, nd * uxd),
                                (-nn * uc, nd * ucd))
        R = self.s.numerator * self.s.denominator
        root = math.isqrt(R)
        return u, w, R, (root if root * root == R else None)

    def sign(self, m, a, b, pt, qt) -> np.ndarray:
        """The exact sign of (statistic - pt/qt) at row offset ``a`` and
        column offset ``b`` of layer m, for integer arrays that broadcast
        (qt > 0), computed in Python ints, which cannot overflow.  The float
        filter of :meth:`splits` leaves it only the cells near a threshold
        or an indicator endpoint: on the coin, a few dozen per dynamic
        program up to n = 160 and about 500 at n = 999, too few for an int64
        path to pay."""
        (du, U0, Ua), (dw, W0, Wa, Wb), R, root = self._integer_form
        # statistic - pt/qt = A/(du*qt) + B/(dw*sqrt(s)), which times the
        # positive du*qt*dw*s.numerator is Y + X*sqrt(R): Y = A*cy, X = B*du*qt
        cy = dw * self.s.numerator
        m, a, b, pt, qt = (np.asarray(v, dtype=object) for v in (m, a, b, pt, qt))
        Y = ((m * U0 + a * Ua) * qt - pt * du) * cy
        X = (m * W0 + a * Wa + b * Wb) * (qt * du)
        if root is not None:
            return np.sign(Y + X * root)
        sx, sy = np.sign(X), np.sign(Y)
        # opposite signs: |Y| against |X|*sqrt(R), compared squared
        return np.where(sx * sy < 0, sx * np.sign(X * X * R - Y * Y), np.sign(sx + sy))

    def splits(self, layers: Sequence[int], t: Sequence[float], t_exact: Sequence[Fraction],
               inclusive: Sequence[bool]) -> list[np.ndarray]:
        """For each column of each layer in ``layers``, the number of its
        rows whose statistic is below the entry's ``t_exact``, or at or
        below it where ``inclusive``; ``t`` holds their floats.  The
        statistic rises with the row offset, so these rows are a prefix of
        the column.  The float statistic locates each column's boundary, and
        only the cells within FILTER_MARGIN of t, relative to the magnitudes
        summed, take the exact sign test.  An entry goes in the chunk of
        _SPLIT_COLUMNS columns its first column falls in, which bounds the
        temporaries; a chunk takes a fixed number of array operations,
        however many layers it holds."""
        layers = np.asarray(layers, dtype=np.intp)
        widths = self._size[1][layers]
        first = np.cumsum(widths) - widths  # each entry's first column
        cuts = np.searchsorted(first, range(0, int(first[-1]) + 1, _SPLIT_COLUMNS)).tolist()
        out = []
        for i, j in zip(cuts, [*cuts[1:], len(layers)]):
            if i < j:
                out += self._splits(layers[i:j], t[i:j], t_exact[i:j], inclusive[i:j])
        return out

    def _splits(self, layers, t, t_exact, inclusive) -> list[np.ndarray]:
        widths = self._size[1][layers]
        ends = np.cumsum(widths)  # past each entry's last column
        at_layer = np.repeat(np.arange(len(layers)), widths)  # each column's entry
        m = layers[at_layer]
        b = self._offsets(1, m, np.arange(ends[-1]) - (ends - widths)[at_layer])
        tf, incl = np.asarray(t, dtype=float)[at_layer], np.asarray(inclusive)[at_layer]
        size = self._size[0][m]
        mf, bf = m.astype(float), b.astype(float)
        top = mf * float(max(self.dx))  # the widest move m times: the layer's last row
        (k0, ka, kb), (g0, ga, gb) = self._coef, self._mag
        # the row offset at which each column's float statistic meets t, and
        # a half-width that holds every cell within the margin, a row to spare
        mk, bk, mg, bg, ta = mf * k0, bf * kb, mf * g0, bf * gb, np.abs(tf)
        at = (tf - (mk + bk)) / ka
        half = (mg + top * ga + bg + ta) * (2 * FILTER_MARGIN / ka) + 1
        # the candidate cells: rows lo, lo + 1, ... of every column, as many
        # as the widest window holds; rows outside a column's window are far
        # from t, so their float test is exact
        lo, end = self._rows_below(m, np.stack([at - half, at + half]))
        width = int((end - lo).max())
        i = lo + np.arange(width)[:, None]
        inside = i < size
        i = np.minimum(i, size - 1)
        a = self._offsets(0, m, i)
        af = a.astype(float)
        value = mk + af * ka + bk
        below = np.where(incl, value <= tf, value < tf)
        near = np.abs(value - tf) <= FILTER_MARGIN * (mg + af * ga + bg + ta)
        ii, jj = np.nonzero(near & inside)
        if ii.size:
            q = np.asarray(t_exact, dtype=object)[at_layer[jj]]
            sign = self.sign(m[jj], a[ii, jj], b[jj], [x.numerator for x in q],
                             [x.denominator for x in q])
            below[ii, jj] = sign < incl[jj]  # sign <= 0 where inclusive, else sign < 0
            self.exact_tests += ii.size
        counts = lo + (below & inside).sum(axis=0)
        ends = ends.tolist()
        return [counts[s:e] for s, e in zip([0, *ends], ends)]

    def statistic(self, m: int) -> np.ndarray:
        """``float(self.state(m, i, j))`` of every cell of layer m."""
        (du, U0, Ua), (dw, W0, Wa, Wb), R, root = self._integer_form
        rows, cols = self.rows[m], self.cols[m]
        if root is not None:  # canonical: w/sqrt(s) = w*sd/root is folded into u
            sd = self.s.denominator
            return _rounded(du * dw * root, m * U0 * dw * root + m * W0 * du * sd,
                            Ua * dw * root + Wa * du * sd, Wb * du * sd, rows, cols)
        return (_rounded(du, m * U0, Ua, 0, rows, cols)
                + _rounded(dw, m * W0, Wa, Wb, rows, cols) / math.sqrt(float(self.s)))


def _common_denominator(*coef: tuple[int, int]) -> tuple[int, ...]:
    """(den, k0, k1, ...) in lowest terms with coefficient i = k_i/den, for
    coefficients given as (numerator, positive denominator) pairs."""
    den = math.lcm(*(d for _, d in coef))
    k = [n * (den // d) for n, d in coef]
    g = math.gcd(den, *k)
    return (den // g, *(x // g for x in k))


def _rounded(den: int, k0: int, ka: int, kb: int, rows, cols) -> np.ndarray:
    """float((k0 + a*ka + b*kb)/den) over row offsets a and column offsets b,
    one correctly rounded division of exact integers: int64 ones while every
    integer stays within 2**53, where float64 holds them exactly, and Python
    ones past it."""
    amax, bmax = int(rows[-1]), int(cols[-1])  # offsets are sorted
    small = max(den, amax, bmax, abs(k0) + amax * abs(ka) + bmax * abs(kb)) <= 2**53
    dtype = np.int64 if small else object
    a = np.asarray(rows, dtype=dtype)[:, None]
    b = np.asarray(cols, dtype=dtype)[None, :]
    return np.asarray((k0 + a * ka + b * kb) / den, dtype=float)


def _exact_dtype(D: int, k: int):
    """The dtype of exact numerators up to D**k: int64 while D**k fits in
    it, else object, for Python ints."""
    return np.int64 if D ** k < 2**63 else object


def _terminal_layer(grid: _Lattice, phi: TerminalFunction | None, m: int,
                    terminal: Callable | None = None, entries=((), (), (), ())):
    """(the counts ``grid.splits`` gives for ``entries``, the float payoff of
    every cell of layer m): ``terminal(u, w)`` of the cell's exact key when
    given, else phi of its statistic.  ``entries`` holds the layers, t,
    t_exact and inclusive arguments of ``splits``.  An indicator is decided
    exactly, in the same ``splits`` call."""
    requests = entries
    if terminal is None and phi.supports_exact:
        # the indicator of [a, b] holds on rows lo..hi-1 of each column: lo
        # counts the rows below a, hi those at or below b
        for end in ((phi.a, phi.a_exact, False), (phi.b, phi.b_exact, True)):
            if end[1] is not None:
                requests = [[*column, value] for column, value in zip(requests, (m, *end))]
    counts = grid.splits(*requests) if len(requests[0]) else []
    decided, counts = counts[:len(entries[0])], counts[len(entries[0]):]
    if terminal is not None:
        V = np.empty(grid.shape(m))
        for a, b in np.ndindex(V.shape):
            V[a, b] = terminal(*grid.state(m, a, b).key())
    elif phi.supports_exact:
        size, _ = grid.shape(m)
        lo = counts.pop(0) if phi.a_exact is not None else 0
        hi = counts.pop(0) if phi.b_exact is not None else size
        rows = np.arange(size)[:, None]
        V = ((rows >= lo) & (rows < hi)).astype(float)
    else:
        V = phi.sample(grid.statistic(m))
    return decided, V


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
    n_cap: int | None = None,
    keep_layers: bool = False,
):
    route = _route(L, variant, n, rule, alpha, beta)
    cap = DEFAULT_N_CAP if n_cap is None else n_cap
    if n > cap:
        raise StateExplosion(
            f"n={n} exceeds the {variant} cap of {cap}; in a library call the n_cap "
            f"keyword of the dynamic program raises it"
        )
    steps = n if steps is None else steps
    exact_values = _resolve_value_mode(value_mode, phi, n) if terminal is None else False
    grid = _Lattice(route, steps, DEFAULT_MAX_STATES, keep_layers)
    inc, centers, D = route.inc, route.centers, route.D

    # Under a switching rule every law takes the step's one center, so one
    # expectation serves both centers: the first splits[m - 1] rows of each
    # column of layer m - 1 read it at the ``first`` center's column, the
    # other rows at the ``rest`` center's.  Under the M-rule the cells at or
    # below the step's threshold take the upper mean, under the M-tilde rule
    # the cells below it the lower one: either way a prefix.
    entries = ((), (), (), ())
    law_centers = centers
    if route.switching:
        lo_mu, hi_mu = centers
        first_mu, rest_mu = (lo_mu, hi_mu) if inc.tilde else (hi_mu, lo_mu)
        law_centers = [first_mu] * len(centers)
        rest_db = grid.dc[rest_mu]
        thresholds, float_thresholds = rule._thresholds(n)
        entries = (range(steps), float_thresholds[:steps], thresholds[:steps],
                   [not inc.tilde] * steps)
    splits, V = _terminal_layer(grid, phi, steps, terminal, entries)
    db = [grid.dc[c] for c in law_centers]  # each law's column move
    one_center = len(set(db)) == 1
    laws = np.arange(len(db))[:, None]

    # forward reachability, for the per-state table only: a center moves the
    # reached cells along their rows, then each outcome along their columns
    if keep_layers:
        reach = [np.ones((1, 1), dtype=bool)]
        for m in range(1, steps + 1):
            prev = reach[-1]
            sources = [(d, prev) for d in dict.fromkeys(db)]
            if route.switching:
                firsts = np.arange(len(prev))[:, None] < splits[m - 1]
                sources = [(db[0], prev & firsts), (rest_db, prev & ~firsts)]
            nxt = np.zeros(grid.shape(m), dtype=bool)
            for d, src in sources:
                moved = np.zeros((len(prev), nxt.shape[1]), dtype=bool)
                moved[:, grid.landing(m, 1, d)] = src
                for da in grid.dx:
                    nxt[grid.landing(m, 0, da)] |= moved
            reach.append(nxt)

    # Float values carry float64 weights.  Exact values are integer
    # numerators, layer m over D**(steps - m): the payoff is 0 or 1 and each
    # law's weights sum to D, so every product and partial sum of the step
    # that forms layer m - 1 is at most D**(steps - m + 1).
    def weights(dtype):
        """Each outcome's row move and its weight in every law, the laws
        along a leading axis, in outcome order."""
        probs = route.weights
        if dtype is float:
            probs = [[p / D for p in law] for law in probs]
        return [(da, np.array(p, dtype=dtype)[:, None, None])
                for da, p in zip(grid.dx, zip(*probs))]

    dtype = _exact_dtype(D, 1) if exact_values else float
    terms = weights(dtype)
    if exact_values:
        V = V.astype(np.int64).astype(dtype, copy=False)

    # backward induction: a step goes through the rows of layer m - 1 in
    # blocks of about _BLOCK_CELLS cells of layer m, whose per-law sums stay
    # in cache
    best_of = np.minimum if minimize else np.maximum

    def expectation(V, m: int, r0: int, r1: int) -> np.ndarray:
        """Every law's expected layer-m value on rows r0..r1-1 of layer
        m - 1 and every column of layer m, the laws along a leading axis;
        terms are added in outcome order."""
        (da, p), *more = terms
        total = p * V[grid.landing(m, 0, da, r0, r1)]
        for da, p in more:
            total += p * V[grid.landing(m, 0, da, r0, r1)]
        return total

    kept = [V]
    for m in range(steps, 0, -1):
        if exact_values and dtype is not _exact_dtype(D, steps - m + 1):
            # from the first layer whose sums may not fit in int64: Python ints
            dtype = object
            terms, V = weights(dtype), V.astype(dtype)
        nxt = np.empty(grid.shape(m - 1), dtype)
        if not one_center:  # law j's column of layer m for each column of m - 1
            at = np.array([np.arange(V.shape[1])[grid.landing(m, 1, d)] for d in db])
        block = max(1, _BLOCK_CELLS // V.shape[1])
        for r0 in range(0, len(nxt), block):
            r1 = min(r0 + block, len(nxt))
            out = nxt[r0:r1]
            total = expectation(V, m, r0, r1)
            if not one_center:  # the best law at its own center's column
                best_of.reduce(total[laws, :, at], axis=0, out=out.T)
                continue
            # every law at one center: the best law, then the center's column
            F = best_of.reduce(total, axis=0)
            out[...] = F[:, grid.landing(m, 1, db[0])]
            if route.switching:  # the rows at or past their column's split
                rows = np.arange(r0, r1)[:, None]
                np.copyto(out, F[:, grid.landing(m, 1, rest_db)], where=rows >= splits[m - 1])
        V = nxt
        if keep_layers:
            kept.append(V)

    def value(V, m: int, a=0, b=0):
        if exact_values:
            return Fraction(int(V[a, b]), D ** (steps - m))
        return float(V[a, b])

    if not keep_layers:
        return value(V, 0)
    layers = []
    for m, (V, R) in enumerate(zip(reversed(kept), reach)):
        layers.append({grid.state(m, a, b).key(): value(V, m, a, b)
                       for a, b in zip(*np.nonzero(R))})
    return DpLattice(route.s, tuple(layers), grid.exact_tests)


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
        raise ValueError("enumeration oracle needs a sharp indicator terminal")
    inc, D, s = route.inc, route.D, route.s
    root = sqrt_exact(s)
    thresholds = rule._thresholds(n)[0] if inc.switching else None
    moves: dict = {}  # center -> (du, dw) of each outcome
    better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)

    def fold(u: Fraction, w: Fraction) -> tuple[Fraction, Fraction]:
        """The canonical (u, w), as ExactValue.create makes it."""
        return (u + w / root, Fraction(0)) if root is not None and w else (u, w)

    def rec(m: int, u: Fraction, w: Fraction) -> Fraction:
        M = ExactValue(u, w, s)
        if m == n:
            return phi.evaluate_exact(M)
        centers = route.centers
        if inc.switching:
            centers = [rule.mean(M, thresholds[m], inc.tilde)] * len(route.weights)
        children: dict = {}  # center -> child values by outcome
        best = None
        for c, pj in zip(centers, route.weights):
            if c not in children:
                if c not in moves:
                    moves[c] = [inc.exact(x, c, n) for x in route.values]
                children[c] = [rec(m + 1, *fold(u + du, w + dw)) for du, dw in moves[c]]
            total = Fraction(sum(p * child for child, p in zip(children[c], pj)), D)
            if best is None or better(total, best):
                best = total
        return best

    return rec(0, Fraction(0), Fraction(0))


# ---------------------------------------------------------------------------
# product model (no history dependence) — exploratory comparison


def product_model_value(
    L: MeasureSet, phi: TerminalFunction, n: int, variant: str = "clt", *, alpha=1, beta=1
) -> float:
    """Best value over product measures: one law per coordinate, the same at
    every history.  Increments are exchangeable, so only the multiset of law
    choices matters and each candidate is evaluated by exact convolution.

    The states are the cells of the dynamic program's lattice, bounded by
    its cell budget (past it :class:`StateExplosion`).  A multiset of law
    choices fixes the sum of the centers, hence one column of the terminal
    layer, and the sum of the outcomes is distributed over that column's
    rows.  A distribution holds exact integer numerators over D**m after m
    steps, D the common denominator of the probabilities, as int64 while
    D**m fits in it and as Python ints past that.  Every float payoff is an
    integer over a power of two, so the payoffs enter as exact integer
    numerators over Q, the largest of those powers, and a candidate's value
    is an integer dot product over D**n * Q: every value is exact and the
    best one is rounded once.  The candidates are the compositions of n over
    the laws in lexicographic order, each applying law 0 first, then law 1,
    and so on; compositions that begin with the same law choices share the
    distribution of that prefix.
    """
    if increment(variant).switching:
        raise ValueError("product model applies to the non-switching variants")
    route = _route(L, variant, n, None, alpha, beta)
    k = len(L.laws)
    n_multisets = math.comb(n + k - 1, k - 1)
    if n_multisets * n > 200_000:
        raise ValueError("too many law multisets; reduce n or the law count")
    grid = _Lattice(route, n, DEFAULT_MAX_STATES, keep_layers=False)
    num, den = np.frompyfunc(float.as_integer_ratio, 1, 2)(_terminal_layer(grid, phi, n)[1])
    Q = int(den.max())  # every den is a power of two, so each divides Q
    columns = dict(zip((int(b) for b in grid.cols[n]), (num * (Q // den)).T))

    def step(dist, j: int):
        """(steps taken, column offset, numerators over the rows) after one
        more step of law j."""
        m, col, P = dist
        dtype = _exact_dtype(route.D, m + 1)
        P = P.astype(dtype, copy=False)
        nxt = np.zeros(len(grid.rows[m + 1]), dtype=dtype)
        for da, p in zip(grid.dx, route.weights[j]):
            nxt[grid.landing(m + 1, 0, da)] += p * P  # a move lands distinct rows on distinct rows
        return m + 1, col + grid.dc[route.centers[j]], nxt

    def expectation(dist):
        _, col, P = dist
        return np.dot(P, columns[col])

    start = (0, 0, np.ones(1, dtype=np.int64))
    best = max(_composition_values(start, 0, n, k, step, expectation))
    return float(Fraction(best, route.D ** n * Q))


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
    """One horizon of a convergence report: the DP value, its gap to the
    limit reference and the seconds the DP took."""

    n: int
    value: float
    gap: float
    runtime: float


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
) -> ConvergenceReport:
    """Finite-n worst-case values against a limit, with gap monotonicity
    flagged (not enforced: no convergence rate is asserted).  Each horizon
    is one float :func:`_dp_value` call under the default horizon cap;
    product-model values at the same horizons come from
    :func:`product_model_value`."""
    if list(n_list) != sorted(n_list) or len(set(n_list)) != len(n_list):
        raise ValueError("n_list must be strictly increasing")
    rows = []
    for n in n_list:
        start = time.perf_counter()
        value = float(_dp_value(L, phi, n, variant, rule=rule, alpha=alpha, beta=beta,
                                minimize=minimize, value_mode="float"))
        elapsed = time.perf_counter() - start
        rows.append(ReportRow(n, value, abs(value - limit_reference), elapsed))
    gaps = [r.gap for r in rows]
    monotone = all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    return ConvergenceReport(variant, float(limit_reference), tuple(rows), monotone)
