"""Spans around calls into ambiclt's public functions, timed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``ambiclt`` module that holds a reference to it, so calls one module makes
into another (the CLI into ``worst_case``, ``hyptest`` into
``closed_form``) are traced too.  ``uninstall`` puts the originals back, so
untraced passes run the unmodified program.

A span is (name, group, start, end, parent, op id, pass, phase).  Spans are
kept in memory and written out once, at the end of the run.  A span counts
toward its group's busy time and counters only when no enclosing span
belongs to the same group, so nested calls are not counted twice.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time

DP_VARIANTS = {
    "sup_dp_clt": "clt",
    "sup_dp_scaled": "scaled",
    "sup_dp_deviation": "deviation",
    "sup_dp_special": "special",
    "inf_dp_special_tilde": "tilde",
    "sup_dp_lln": "lln",
}


def _dp_group(value_mode, phi, n) -> str:
    """The value mode a DP call resolves to ("auto" is exact for indicator
    payoffs up to n = 64), as a span group."""
    if value_mode == "auto":
        exact = phi is not None and phi.supports_exact and n <= 64
    else:
        exact = value_mode == "exact"
    return "worst_case.dp_exact" if exact else "worst_case.dp_float"


def _dp_call(fn_name):
    """Group and lattice recipe of one public DP entry point."""

    def classify(a):
        kw = dict(a.get("kw", {}))
        if fn_name in DP_VARIANTS:
            variant = DP_VARIANTS[fn_name]
            for key in ("rule", "alpha", "beta"):
                if key in a:
                    kw[key] = a[key]
            group = _dp_group(kw.get("value_mode", "auto"), a["phi"], a["n"])
            return group, {"calls": 1}, [(a["L"], a["phi"], a["n"], variant, kw)]
        if fn_name == "band_probability_sup":
            m = a["m"]
            if m == 1:
                return "worst_case.dp_float", {"calls": 1}, [None]
            kw = {"rule": a["rule"], "steps": m - 1,
                  "terminal": lambda u, w: 0.0, "value_mode": "float"}
            return "worst_case.dp_float", {"calls": 1}, [(a["L"], None, a["n"], "tilde", kw)]
        # convergence_report: one DP per horizon
        kw = {"rule": a.get("rule"), "alpha": a.get("alpha", 1), "beta": a.get("beta", 1),
              "minimize": a.get("minimize", False), "n_cap": a.get("n_cap")}
        group = _dp_group(a.get("value_mode", "float"), a["phi"], max(a["n_list"]))
        lattices = [(a["L"], a["phi"], n, a.get("variant", "special"), kw) for n in a["n_list"]]
        return group, {"calls": len(lattices)}, lattices

    return classify


def _fixed(group, **counts):
    return (group, counts)


def _mc_counts(a):
    return "worst_case.mc", {"path_steps": a["n"] * a["paths"]}, None


def _extrapolate_counts(a):
    grid = a["grid"]
    solves = len(list(a["eps_sequence"]))
    return "pde.extrapolate", {"pde.solves": solves,
                               "pde.grid_steps": solves * grid.nt * grid.nx}, None


def _dpp_counts(a):
    grid = a["grid"]
    # direct route, first leg, composed leg: three full nt-step marches
    return "pde.dpp", {"pde.solves": 3, "pde.grid_steps": 3 * grid.nt * grid.nx}, None


def _fold_counts(a):
    return "statistics.fold", {"steps": len(a["xs"])}, None


def _simulate_counts(a):
    return "hyptest.simulate", {"path_steps": a["n"] * a["paths"]}, None


# module -> function -> (group, counts), or a classifier taking the bound
# arguments and returning (group, counts, lattice recipes)
TRACED = {
    "worst_case": {
        **{name: _dp_call(name) for name in DP_VARIANTS},
        "band_probability_sup": _dp_call("band_probability_sup"),
        "convergence_report": _dp_call("convergence_report"),
        "enumerate_worst_case": _fixed("worst_case.enumerate", calls=1),
        "product_model_value": _fixed("worst_case.product", calls=1),
        "mc_policy_value": _mc_counts,
        "simulate_statistic_values": _mc_counts,
    },
    "statistics": {
        "condition1_diagnostic": _fixed("statistics.condition1"),
        "path_statistic": _fold_counts,
    },
    "pde": {
        "epsilon_extrapolate": _extrapolate_counts,
        "dpp_check": _dpp_counts,
    },
    "hyptest": {
        "calibrate_interval": _fixed("hyptest.calibrate", calls=1),
        "optimize_ab": _fixed("hyptest.optimize"),
        "size_power_simulation": _simulate_counts,
    },
    "closed_form": {
        name: _fixed("closed_form", calls=1)
        for name in ("upper_indicator_limit", "lower_indicator_limit", "one_sided_limit",
                     "normal_cdf", "reflected_density", "shift_reduce",
                     "indicator_limit_detail")
    },
    "cli": {"main": _fixed("cli", calls=1)},
}

# groups whose time is spent checking results, outside the timed ops
CHECK_GROUPS = ("worst_case.enumerate",)


class Tracer:
    """Records spans while installed; aggregates them per traced pass."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.lattices: dict[int, list] = {}
        self.stack: list[int] = []
        self.op_id = None
        self.pass_index = None
        self.phase = "op"
        self._patches: list[tuple] = []
        self._states_cache: dict = {}
        # the unwrapped function, so counting states records no spans
        self._lattice_fn = sys.modules[f"{package.__name__}.worst_case"].dp_lattice

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        prefix = self.package.__name__
        modules = [m for name, m in sys.modules.items()
                   if name == prefix or name.startswith(prefix + ".")]
        for mod_name, functions in TRACED.items():
            home = sys.modules[f"{prefix}.{mod_name}"]
            for fn_name, classify in functions.items():
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, classify)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, classify):
        signature = inspect.signature(fn)
        spans, stack, lattices = self.spans, self.stack, self.lattices
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if isinstance(classify, tuple):  # fixed group and counts: skip binding
                (group, counts), recipe = classify, None
            else:
                group, counts, recipe = classify(signature.bind(*args, **kwargs).arguments)
            index = len(spans)
            record = [name, group, clock(), None, stack[-1] if stack else -1,
                      self.op_id, self.pass_index, self.phase, counts]
            if recipe is not None:
                lattices[index] = recipe
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation -------------------------------------------------------

    def _states(self, recipe) -> int:
        """Distinct reachable (u, w) states, from dp_lattice on the same inputs."""
        if recipe is None:
            return 1
        L, phi, n, variant, kw = recipe
        kw = {k: v for k, v in kw.items() if k not in ("value_mode", "minimize")}
        key = (L, phi, n, variant, tuple(sorted((k, repr(v)) for k, v in kw.items()
                                                if k != "terminal")))
        if key not in self._states_cache:
            lattice = self._lattice_fn(L, phi, n, variant, value_mode="float", **kw)
            self._states_cache[key] = sum(len(layer) for layer in lattice.layers)
        return self._states_cache[key]

    def pass_summary(self, pass_index: int) -> dict:
        """Busy seconds and counters per group for one traced pass."""
        spans = self.spans
        busy: dict[str, float] = {}
        counts: dict[str, int] = {}

        def ancestors(i):
            parent = spans[i][4]
            while parent != -1:
                yield spans[parent]
                parent = spans[parent][4]

        for i, (name, group, start, end, _parent, _op, p, phase, c) in enumerate(spans):
            if p != pass_index:
                continue
            if (phase == "check") != (group in CHECK_GROUPS):
                continue
            outer = list(ancestors(i))
            if any(a[1] == group for a in outer):
                continue
            busy[group] = busy.get(group, 0.0) + (end - start)
            for key, value in c.items():
                key = key if "." in key else f"{group}.{key}"  # dotted keys name a layer metric
                counts[key] = counts.get(key, 0) + value
            if i in self.lattices:
                states = sum(self._states(r) for r in self.lattices[i])
                counts[f"{group}.states"] = counts.get(f"{group}.states", 0) + states
                if any(a[1] == "statistics.condition1" for a in outer):
                    counts["statistics.condition1.dp_calls"] = (
                        counts.get("statistics.condition1.dp_calls", 0) + c.get("calls", 0))
        return {"busy": busy, "counts": counts}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start,end,parent,op,pass,phase\n")
            for i, (name, _g, start, end, parent, op, p, phase, _c) in enumerate(self.spans):
                handle.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{op},{p},{phase}\n")


def median(values):
    return statistics.median(values) if values else 0.0


# Per-layer metrics of a traced run: (name, unit, better).  Busy times are
# medians over the traced passes; counts are per pass and repeat exactly.
PER_LAYER = [
    *[(f"worst_case.dp_{mode}.{key}", unit, better)
      for mode in ("float", "exact")
      for key, unit, better in (("busy_s", "s", "lower"), ("calls", "count", "lower"),
                                ("states", "count", "lower"),
                                ("states_per_s", "1/s", "higher"))],
    ("worst_case.product.busy_s", "s", "lower"),
    ("worst_case.enumerate.busy_s", "s", "lower"),
    ("worst_case.mc.busy_s", "s", "lower"),
    ("worst_case.mc.path_steps", "count", "lower"),
    ("worst_case.mc.path_steps_per_s", "1/s", "higher"),
    ("statistics.condition1.busy_s", "s", "lower"),
    ("statistics.condition1.dp_calls", "count", "lower"),
    ("statistics.fold.busy_s", "s", "lower"),
    ("statistics.fold.steps", "count", "lower"),
    ("pde.extrapolate.busy_s", "s", "lower"),
    ("pde.dpp.busy_s", "s", "lower"),
    ("pde.solves", "count", "lower"),
    ("pde.grid_steps", "count", "lower"),
    ("pde.grid_steps_per_s", "1/s", "higher"),
    ("hyptest.calibrate.busy_s", "s", "lower"),
    ("hyptest.calibrate.calls", "count", "lower"),
    ("hyptest.optimize.busy_s", "s", "lower"),
    ("hyptest.simulate.busy_s", "s", "lower"),
    ("hyptest.simulate.path_steps", "count", "lower"),
    ("closed_form.busy_s", "s", "lower"),
    ("closed_form.calls", "count", "lower"),
    ("cli.busy_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    *[(f"{layer}.failed", "count", "lower")
      for layer in ("worst_case", "statistics", "pde", "closed_form", "hyptest", "cli")],
]
