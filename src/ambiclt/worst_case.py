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
mean of :class:`SwitchRule` (special, tilde), or none (lln).

States are held exactly as pairs (u, w) meaning u + w/sqrt(n*sigma^2) with
rational coefficients, so two paths reaching the same value share one node —
the difference between this polynomial lattice and the exponential tree that
:func:`enumerate_worst_case` walks for cross-checking.  Terminal indicators
classify boundary atoms by exact rational comparison.

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

from ._exact import ExactValue, sqrt_exact, to_fraction
from .measures import MeasureSet, validate_measure_set
from .statistics import INCREMENTS, SwitchRule, increment
from .terminal import TerminalFunction

VARIANTS = tuple(INCREMENTS)

DEFAULT_N_CAP = {
    "clt": 60,
    "scaled": 60,
    "deviation": 60,
    "special": 2000,
    "tilde": 2000,
    "lln": 2000,
}
DEFAULT_MAX_STATES = 4_000_000


class StateExplosion(RuntimeError):
    """Reachable-state count exceeded the configured cap."""


@dataclass(frozen=True)
class DpLattice:
    """Per-step value table of one dynamic-program run.

    ``layers[m]`` maps each reachable exact state key (u, w), meaning
    u + w/sqrt(scale), to its continuation value; ``layers[n]`` is the
    terminal payoff itself and ``layers[0]`` holds the single root value.
    """

    variant: str
    n: int
    scale: Fraction
    layers: tuple[dict, ...]

    @property
    def value(self):
        (root_value,) = self.layers[0].values()
        return root_value


# ---------------------------------------------------------------------------
# model preparation


@dataclass(frozen=True)
class _Model:
    values: tuple[Fraction, ...]
    probs: tuple[tuple[Fraction, ...], ...]  # per law
    means: tuple[Fraction, ...]  # per law
    mu_lo: Fraction
    mu_hi: Fraction
    sigma_sq: Fraction


def _prepare(L: MeasureSet) -> _Model:
    iv = validate_measure_set(L)
    return _Model(
        values=L.values,
        probs=tuple(law.probs for law in L.laws),
        means=tuple(law.mean() for law in L.laws),
        mu_lo=to_fraction(iv.mu_lower),
        mu_hi=to_fraction(iv.mu_upper),
        sigma_sq=iv.variance_exact(),
    )


def _canonical(u: Fraction, w: Fraction, root: Fraction | None):
    if root is not None and w != 0:
        return (u + w / root, Fraction(0))
    return (u, w)


def _check_rule(variant: str, rule: SwitchRule | None, L: MeasureSet) -> None:
    """A switching variant centers on its rule's means, so the rule must span
    the measure set's own mean interval."""
    if INCREMENTS[variant].switching:
        if rule is None:
            raise ValueError(f"variant {variant!r} needs a switch rule")
        if rule.exact_mean_pair() != L.mean_bounds():
            raise ValueError(
                f"switch rule means {rule.mean_pair()} differ from the measure "
                f"set's mean bounds {tuple(map(float, L.mean_bounds()))}"
            )


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


def _terminal_adapter(phi: TerminalFunction, s: Fraction, exact_values: bool):
    if phi.supports_exact:
        if exact_values:
            return lambda u, w: phi.evaluate_exact(ExactValue(u, w, s))
        return lambda u, w: float(phi.evaluate_exact(ExactValue(u, w, s)))
    if exact_values:
        raise ValueError("exact value mode needs an indicator-kind terminal")
    return lambda u, w: phi(float(ExactValue(u, w, s)))


# ---------------------------------------------------------------------------
# the dynamic program


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
    inc = increment(variant, alpha, beta)
    if n < 1:
        raise ValueError("n must be at least 1")
    cap = DEFAULT_N_CAP[variant] if n_cap is None else n_cap
    if n > cap:
        raise StateExplosion(
            f"n={n} exceeds the {variant} cap of {cap}; pass n_cap to raise it"
        )
    steps = n if steps is None else steps
    model = _prepare(L)
    _check_rule(variant, rule, L)
    s = Fraction(n) * model.sigma_sq
    root = sqrt_exact(s)
    exact_values = _resolve_value_mode(value_mode, phi, n) if terminal is None else False
    if terminal is None:
        terminal = _terminal_adapter(phi, s, exact_values)

    if exact_values:
        weights = model.probs
    else:
        weights = tuple(tuple(float(p) for p in law) for law in model.probs)

    # Each law's step list, grouped by center so that laws sharing a center
    # share their children: [(steps, probabilities of the laws taking them)].
    def grouped(centers):
        return [
            ([inc.exact(x, c, n) for x in model.values],
             tuple(pj for pj, cj in zip(weights, centers) if cj == c))
            for c in dict.fromkeys(centers)
        ]

    if inc.switching:
        k = len(model.probs)
        by_mean = {mu: grouped([mu] * k) for mu in (model.mu_lo, model.mu_hi)}
    else:
        fixed = grouped(inc.law_centers(model.means))

    def groups_at(m: int):
        """The step groups of step m as a function of the state (u, w)."""
        if not inc.switching:
            return lambda u, w: fixed
        thr = rule.threshold_exact(m, n)
        return lambda u, w: by_mean[rule.mean(ExactValue(u, w, s), thr, inc.tilde)]

    # forward reachability
    zero = _canonical(Fraction(0), Fraction(0), root)
    layers: list[list[tuple[Fraction, Fraction]]] = [[zero]]
    seen_total = 1
    current = {zero}
    for m in range(1, steps + 1):
        groups = groups_at(m)
        nxt = set()
        for (u, w) in current:
            for incs, _ in groups(u, w):
                for du, dw in incs:
                    nxt.add(_canonical(u + du, w + dw, root))
        seen_total += len(nxt)
        if seen_total > max_states:
            raise StateExplosion(
                f"reachable states exceeded max_states={max_states} at step {m}"
            )
        layers.append(sorted(nxt))
        current = nxt

    # backward induction
    values = {key: terminal(key[0], key[1]) for key in layers[steps]}
    kept = [values] if keep_layers else None
    better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)
    for m in range(steps, 0, -1):
        groups = groups_at(m)
        prev: dict = {}
        for (u, w) in layers[m - 1]:
            best = None
            for incs, law_probs in groups(u, w):
                children = [values[_canonical(u + du, w + dw, root)] for du, dw in incs]
                for pj in law_probs:
                    total = 0
                    for child, p in zip(children, pj):
                        if p:
                            total += p * child
                    if best is None or better(total, best):
                        best = total
            prev[(u, w)] = best
        values = prev
        if keep_layers:
            kept.append(values)
    if keep_layers:
        return DpLattice(variant, steps, s, tuple(reversed(kept)))
    return values[zero]


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
    if not to_fraction(alpha) > 0:
        raise ValueError("alpha must be positive")
    if to_fraction(beta) < 0:
        raise ValueError("beta must be nonnegative")
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
    switching threshold (the band event of the switching-gap diagnostic)."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if math.isinf(rule.center):
        return 0.0
    model = _prepare(L)
    _check_rule("tilde", rule, L)
    thr = rule.threshold_exact(m, n)
    d = to_fraction(delta)
    lo, hi = thr - d, thr + d
    s = Fraction(n) * model.sigma_sq

    def band(u: Fraction, w: Fraction) -> float:
        ev = ExactValue(u, w, s)
        return 1.0 if ev.cmp(lo) >= 0 and ev.cmp(hi) <= 0 else 0.0

    if m == 1:
        return band(Fraction(0), Fraction(0))
    return _dp_value(
        L, None, n, "tilde", rule=rule, steps=m - 1, terminal=band, value_mode="float"
    )


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
    inc = increment(variant, alpha, beta)
    if n > 10:
        raise ValueError("enumeration is exponential; use n <= 10")
    if not phi.supports_exact:
        raise ValueError("enumeration oracle needs an indicator-kind terminal")
    model = _prepare(L)
    _check_rule(variant, rule, L)
    s = Fraction(n) * model.sigma_sq
    root = sqrt_exact(s)
    law_centers = inc.law_centers(model.means)
    better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)

    def rec(m: int, u: Fraction, w: Fraction) -> Fraction:
        if m == n:
            return phi.evaluate_exact(ExactValue(u, w, s))
        step = m + 1
        centers = law_centers
        if inc.switching:
            mu = rule.mean(ExactValue(u, w, s), rule.threshold_exact(step, n), inc.tilde)
            centers = [mu] * len(model.probs)
        children: dict = {}  # center -> child values by outcome
        best = None
        for c, pj in zip(centers, model.probs):
            if c not in children:
                children[c] = [
                    rec(step, *_canonical(u + du, w + dw, root))
                    for du, dw in (inc.exact(x, c, n) for x in model.values)
                ]
            total = Fraction(0)
            for child, p in zip(children[c], pj):
                if p:
                    total += p * child
            if best is None or better(total, best):
                best = total
        return best

    zero = _canonical(Fraction(0), Fraction(0), root)
    return rec(0, zero[0], zero[1])


# ---------------------------------------------------------------------------
# product model (no history dependence) — exploratory comparison


def product_model_value(
    L: MeasureSet, phi: TerminalFunction, n: int, variant: str = "clt", *, alpha=1, beta=1
) -> float:
    """Best value over product measures: one law per coordinate, the same at
    every history.  Increments are exchangeable, so only the multiset of law
    choices matters and each candidate is evaluated by exact convolution."""
    inc = increment(variant, alpha, beta)
    if inc.switching:
        raise ValueError("product model applies to the non-switching variants")
    model = _prepare(L)
    s = Fraction(n) * model.sigma_sq
    root = sqrt_exact(s)
    k = len(L.laws)
    n_multisets = math.comb(n + k - 1, k - 1)
    if n_multisets * n > 200_000:
        raise ValueError("too many law multisets; reduce n or the law count")

    law_steps = [
        [inc.exact(x, c, n) for x in model.values] for c in inc.law_centers(model.means)
    ]
    fl_probs = [tuple(float(p) for p in law) for law in model.probs]

    def evaluate(counts: tuple[int, ...]) -> float:
        dist = {_canonical(Fraction(0), Fraction(0), root): 1.0}
        for j, cnt in enumerate(counts):
            for _ in range(cnt):
                nxt: dict = {}
                for (u, w), p0 in dist.items():
                    for (du, dw), p in zip(law_steps[j], fl_probs[j]):
                        if p:
                            key = _canonical(u + du, w + dw, root)
                            nxt[key] = nxt.get(key, 0.0) + p0 * p
                dist = nxt
        total = 0.0
        for (u, w), p0 in dist.items():
            if phi.supports_exact:
                total += p0 * float(phi.evaluate_exact(ExactValue(u, w, s)))
            else:
                total += p0 * phi(float(ExactValue(u, w, s)))
        return total

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    return max(evaluate(c) for c in compositions(n, k))


# ---------------------------------------------------------------------------
# drift policies and Monte Carlo evaluation


@dataclass(frozen=True)
class DriftPolicy:
    """History-dependent choice of a law index per step.

    ``fn(m, M_array, n) -> int array`` maps the step index, the current
    statistic values and the horizon to law indices; policies must be total.
    """

    kind: str
    fn: Callable[[int, np.ndarray, int], np.ndarray]
    label: str

    @classmethod
    def constant(cls, index: int) -> "DriftPolicy":
        return cls("constant", lambda m, M, n: np.full(M.shape, index, dtype=int),
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
            return np.where(rule.upper(M, rule.threshold(m, n)), hi_idx, lo_idx)

        label = "threshold" if favorable_below else "anti-threshold"
        return cls("statistic_threshold", fn, label)

    @classmethod
    def alternating(cls, n_laws: int) -> "DriftPolicy":
        return cls("custom", lambda m, M, n: np.full(M.shape, (m - 1) % n_laws, dtype=int),
                   "alternating")

    @classmethod
    def from_table(cls, table: dict[int, int], default: int = 0) -> "DriftPolicy":
        """Law index per step from a table keyed by m (gaps use ``default``)."""
        def fn(m, M, n):
            return np.full(M.shape, table.get(m, default), dtype=int)

        return cls("custom", fn, "table")

    @classmethod
    def from_callable(cls, fn: Callable[[int, np.ndarray, int], np.ndarray], label: str = "custom") -> "DriftPolicy":
        return cls("custom", fn, label)


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

    Randomness comes from one counter-based Philox stream keyed by ``seed``;
    row i of the draw matrix is the substream of path i, so results are
    reproducible bit for bit and independent of scheduling.
    """
    inc = increment(variant, alpha, beta)
    if paths < 1:
        raise ValueError("paths must be at least 1")
    _check_rule(variant, rule, L)
    iv = validate_measure_set(L)
    sigma = float(iv.sigma)
    values = np.array([float(v) for v in L.values])
    centers = np.array([float(c) for c in inc.law_centers(L.means())])
    cdfs = [np.cumsum([float(p) for p in law.probs]) for law in L.laws]

    rng = np.random.Generator(np.random.Philox(key=seed))
    uniforms = rng.random((paths, n))
    M = np.zeros(paths)
    for m in range(1, n + 1):
        idx = np.asarray(policy.fn(m, M, n), dtype=int)
        u = uniforms[:, m - 1]
        draws = np.stack([values[np.searchsorted(cdf, u, side="right")] for cdf in cdfs])
        x = draws[idx, np.arange(paths)]
        if inc.switching:
            mu = rule.mean(M, rule.threshold(m, n), inc.tilde)
        else:
            mu = centers[idx]
        M = inc.advance(M, x, mu, n, sigma)
    return M


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
