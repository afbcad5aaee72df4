"""The benchmark's three workloads: fixed lists of operations with checks.

Each workload is a function from a :class:`Context` to a list of
:class:`Op`.  One pass runs every op in order; only ``Op.run`` is timed.
``Op.check`` runs after it, outside the timed region, and returns None or a
failure message.  Checks compare against the closed form, the enumeration
oracle, the library itself (for CLI payloads) or values stored in
``references.json`` by ``make_references.py``; ``Op.ref_key`` names that
stored value and ``Op.make_ref`` computes it.

Why these workloads, and what each one judges, is in ``WORKLOADS.md``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from inputs import fold_paths

DP_FLOAT_TOL = 1e-12
PDE_TOL = 5e-3
DPP_TOL = 5e-4
CALIBRATION_TOL = 1e-9
MONOTONE_TOL = 1e-8
SIZE_TOL = 0.02
MC_BOUND_SE = 3.0
MC_MATCH_SE = 4.0
REF_MC_SEED = 99991
EPS_SWEEP = [0.2, 0.1, 0.05, 0.025]
MC_PATHS = 100_000
ENUMERATION_MAX_N = 5


@dataclass
class Op:
    name: str
    layer: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    ref_key: str | None = None
    make_ref: Callable[[], Any] | None = None


@dataclass
class Context:
    """What the ops of one workload share: the library, inputs and refs."""

    inputs: dict
    refs: dict
    tmpdir: str
    cache: dict = field(default_factory=dict)

    def __post_init__(self):
        import ambiclt
        from ambiclt import cli, closed_form, hyptest, pde, statistics, worst_case

        self.ac, self.cli, self.cf, self.hyp = ambiclt, cli, closed_form, hyptest
        self.pde, self.st, self.wc = pde, statistics, worst_case
        p, q = self.inputs["coin"]
        self.p, self.q = p, q
        self.L = ambiclt.coin_example(p, q)
        self.iv = ambiclt.validate_measure_set(self.L)
        self.rule = ambiclt.SwitchRule(0.0, self.iv)
        b = self.inputs["half_width"]
        self.phi = ambiclt.TerminalFunction.indicator("-" + b, b)
        self.bf = float(Fraction(b))
        self.coin_key = f"coin={p},{q}|b={b}"

    def cached(self, key, compute):
        """A library value a check compares against, computed once per run."""
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]

    def run_cli(self, name: str, argv: list[str]) -> dict:
        path = os.path.join(self.tmpdir, f"{name}.json")
        code = self.cli.main(argv + ["--output", path])
        if code != 0:
            raise RuntimeError(f"cli {argv[0]} exited {code}")
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)


# ---------------------------------------------------------------------------
# checks


def _float_ref(ctx: Context, key: str):
    def check(value):
        want = float(ctx.refs[key])
        got = float(value)
        if abs(got - want) > DP_FLOAT_TOL:
            return f"{got!r} differs from reference {want!r} by more than {DP_FLOAT_TOL}"
        return None
    return check


def _exact_ref(ctx: Context, key: str, oracle: Callable[[], Fraction] | None = None):
    def check(value):
        if not isinstance(value, Fraction):
            return f"exact mode returned {type(value).__name__}, not Fraction"
        if value != Fraction(ctx.refs[key]):
            return f"{value} != stored reference {ctx.refs[key]}"
        if oracle is not None:
            enumerated = oracle()
            if value != enumerated:
                return f"{value} != enumeration {enumerated}"
        return None
    return check


def _dp_op(ctx, name, fn, key, *, exact=False, oracle=None) -> Op:
    check = _exact_ref(ctx, key, oracle) if exact else _float_ref(ctx, key)
    to_ref = str if exact else float
    return Op(name, "worst_case", fn, check, key, lambda: to_ref(fn()))


# ---------------------------------------------------------------------------
# workload 1: float-mode DPs at large horizons


def dp_float_large(ctx: Context) -> list[Op]:
    wc, L, phi, rule = ctx.wc, ctx.L, ctx.phi, ctx.rule
    horizon = ctx.inputs["rational_horizon"]
    shifted = L.shifted(ctx.inputs["shift"])
    shifted_rule = ctx.ac.SwitchRule(0.0, ctx.ac.validate_measure_set(shifted))
    base = f"float|{ctx.coin_key}"
    return [
        _dp_op(ctx, "special n=44",
               lambda: wc.sup_dp_special(L, phi, 44, rule, value_mode="float"),
               f"{base}|special|n=44"),
        _dp_op(ctx, f"special n={horizon} (rational sqrt(n sigma^2))",
               lambda: wc.sup_dp_special(L, phi, horizon, rule, value_mode="float"),
               f"{base}|special|n={horizon}"),
        _dp_op(ctx, "tilde n=40",
               lambda: wc.inf_dp_special_tilde(L, phi, 40, rule, value_mode="float"),
               f"{base}|tilde|n=40"),
        _dp_op(ctx, "clt n=24",
               lambda: wc.sup_dp_clt(L, phi, 24, value_mode="float"),
               f"{base}|clt|n=24"),
        _dp_op(ctx, "lln n=160",
               lambda: wc.sup_dp_lln(L, phi, 160, value_mode="float"),
               f"{base}|lln|n=160"),
        _dp_op(ctx, f"special shifted by {ctx.inputs['shift']} n=32",
               lambda: wc.sup_dp_special(shifted, phi, 32, shifted_rule, value_mode="float"),
               f"{base}|shift={ctx.inputs['shift']}|special|n=32"),
    ]


# ---------------------------------------------------------------------------
# workload 2: small exact DPs, per-call overhead and the statistic folds

EXACT_MAX_N = 12
SCALED = {"alpha": "1/2", "beta": 2}


def _variant_kwargs(ctx, variant):
    if variant == "scaled":
        return dict(SCALED)
    if variant == "special":
        return {"rule": ctx.rule}
    if variant == "tilde":
        return {"rule": ctx.rule, "minimize": True}
    return {}


def _variant_call(ctx, variant, n):
    wc, L, phi, rule = ctx.wc, ctx.L, ctx.phi, ctx.rule
    calls = {
        "clt": lambda: wc.sup_dp_clt(L, phi, n, value_mode="exact"),
        "scaled": lambda: wc.sup_dp_scaled(L, phi, n, SCALED["alpha"], SCALED["beta"],
                                           value_mode="exact"),
        "deviation": lambda: wc.sup_dp_deviation(L, phi, n, value_mode="exact"),
        "special": lambda: wc.sup_dp_special(L, phi, n, rule, value_mode="exact"),
        "tilde": lambda: wc.inf_dp_special_tilde(L, phi, n, rule, value_mode="exact"),
        "lln": lambda: wc.sup_dp_lln(L, phi, n, value_mode="exact"),
    }
    return calls[variant]


def _fold_states(values) -> list:
    return [[str(v.u), str(v.w)] for v in values]


def dp_exact_small(ctx: Context) -> list[Op]:
    wc, st, L, phi, rule = ctx.wc, ctx.st, ctx.L, ctx.phi, ctx.rule
    base = f"exact|{ctx.coin_key}"
    ops = []
    for n in range(1, EXACT_MAX_N + 1):
        for variant in ("clt", "scaled", "deviation", "special", "tilde", "lln"):
            oracle = None
            if n <= ENUMERATION_MAX_N:
                kw = _variant_kwargs(ctx, variant)
                oracle = (lambda n=n, v=variant, kw=kw:
                          wc.enumerate_worst_case(L, phi, n, v, **kw))
            ops.append(_dp_op(ctx, f"{variant} exact n={n}", _variant_call(ctx, variant, n),
                              f"{base}|{variant}|n={n}", exact=True, oracle=oracle))
    ops.append(_dp_op(ctx, "special exact n=40",
                      lambda: wc.sup_dp_special(L, phi, 40, rule, value_mode="exact"),
                      f"{base}|special|n=40", exact=True))

    delta = Fraction(1, 10)
    key = f"float|{ctx.coin_key}|condition1|n=24"
    run = lambda: st.condition1_diagnostic(L, 24, delta, rule)  # noqa: E731
    ops.append(Op("condition1 n=24", "statistics", run, _float_ref(ctx, key), key,
                  lambda run=run: float(run())))
    for variant in ("clt", "lln"):
        key = f"float|{ctx.coin_key}|product|{variant}|n=24"
        run = lambda v=variant: wc.product_model_value(L, phi, 24, v)  # noqa: E731
        ops.append(Op(f"product {variant} n=24", "worst_case", run, _float_ref(ctx, key),
                      key, lambda run=run: float(run())))

    paths = fold_paths(ctx.inputs["fold_path_seed"])
    fold_key = f"fold|coin={ctx.p},{ctx.q}|paths={ctx.inputs['fold_path_seed']}"
    length = len(paths[0])

    def fold_exact():
        return [st.path_statistic(xs, length, rule, exact=True) for xs in paths]

    def fold_float():
        return [st.path_statistic(xs, length, rule) for xs in paths]

    def check_exact(values):
        if _fold_states(values) != ctx.refs[fold_key]["exact"]:
            return "exact fold differs from the stored (u, w) states"
        return None

    def check_float(values):
        want = ctx.refs[fold_key]["float"]
        if len(values) != len(want):
            return f"float fold gave {len(values)} values, not {len(want)}"
        worst = max(abs(a - b) for a, b in zip(values, want))
        if worst > DP_FLOAT_TOL:
            return f"float fold differs from reference by {worst:.3g}"
        return None

    ops.append(Op("fold exact 200x50", "statistics", fold_exact, check_exact, fold_key,
                  lambda: {"exact": _fold_states(fold_exact()), "float": fold_float()}))
    ops.append(Op("fold float 200x50", "statistics", fold_float, check_float))

    n_list = [10, 20]
    argv = ["dp", "--theorem", "special", f"--p={float(Fraction(ctx.p))!r}",
            f"--q={float(Fraction(ctx.q))!r}", f"--a=-{ctx.bf!r}", f"--b={ctx.bf!r}",
            "--c=0", "--n-list", *map(str, n_list)]

    def check_cli(payload):
        for row in payload["rows"]:
            want = ctx.cached(("dp", row["n"]), lambda n=row["n"]: float(
                wc.sup_dp_special(L, phi, n, rule, value_mode="float")))
            if row["value"] != want:
                return f"cli n={row['n']} value {row['value']!r} != library {want!r}"
        if [row["n"] for row in payload["rows"]] != n_list:
            return "cli rows do not match --n-list"
        return None

    ops.append(Op("cli dp --n-list 10 20", "cli", lambda: ctx.run_cli("dp", argv), check_cli))
    return ops


# ---------------------------------------------------------------------------
# workload 3: the limit routes (PDE, Monte Carlo, closed form, hyptest)


def limits_mc(ctx: Context) -> list[Op]:
    ac, pde, wc, hyp, cf = ctx.ac, ctx.pde, ctx.wc, ctx.hyp, ctx.cf
    TF = ac.TerminalFunction
    bf, L, phi, rule = ctx.bf, ctx.L, ctx.phi, ctx.rule
    inputs = ctx.inputs
    grid = pde.PdeGrid.default()
    ops = []

    for kappa in inputs["pde_kappas"]:
        limit = cf.upper_indicator_limit(ac.interval(-kappa, kappa), -bf, bf)
        for h in (0.05, 0.02):
            smooth = TF.smoothed_indicator(-bf, bf, h)

            def check_pde(res, limit=limit):
                gap = abs(res.extrapolated - limit)
                return None if gap <= PDE_TOL else f"gap {gap:.3g} to closed form > {PDE_TOL}"

            ops.append(Op(f"pde extrapolate kappa={kappa} h={h}", "pde",
                          lambda s=smooth, k=kappa: pde.epsilon_extrapolate(s, k, grid, EPS_SWEEP),
                          check_pde))

    kappa_mid = inputs["pde_kappas"][1]
    probes = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    ops.append(Op(f"pde dpp_check kappa={kappa_mid}", "pde",
                  lambda: pde.dpp_check(TF.smoothed_indicator(-bf, bf, 0.05),
                                        pde.GeneratorSpec(kappa_mid, 0.05), grid, 4, 2, probes),
                  lambda d: None if d <= DPP_TOL else f"discrepancy {d:.3g} > {DPP_TOL}"))
    kappa_hi = inputs["pde_kappas"][2]
    iv_hi = ac.interval(-kappa_hi, kappa_hi)
    tail = cf.one_sided_limit(iv_hi, -bf, "right_tail", "upper")
    ops.append(Op(f"pde monotone_reduction kappa={kappa_hi}", "pde",
                  lambda: pde.monotone_reduction(TF.right(-bf), iv_hi),
                  lambda v: None if abs(v - tail) <= MONOTONE_TOL
                  else f"{v!r} vs one-sided limit {tail!r}"))

    dp20 = f"float|{ctx.coin_key}|special|n=20"
    for k, policy in enumerate(wc.builtin_policies(L, rule)):
        def check_bound(est):
            bound = float(ctx.refs[dp20]) + MC_BOUND_SE * est.stderr
            return None if est.estimate <= bound else (
                f"estimate {est.estimate:.5f} above dp + {MC_BOUND_SE} se = {bound:.5f}")

        seed = inputs["mc_seed"] + k
        ops.append(Op(f"mc {policy.label} n=20", "worst_case",
                      lambda p=policy, s=seed: wc.mc_policy_value(
                          L, p, phi, "special", 20, MC_PATHS, s, rule=rule),
                      check_bound, dp20,
                      lambda: float(wc.sup_dp_special(L, phi, 20, rule, value_mode="float"))))
    for k, policy in enumerate(wc.builtin_policies(L, rule)[2:4]):
        key = f"mc|{ctx.coin_key}|{policy.label}|n=200"

        def check_match(est, key=key):
            ref_est, ref_se = ctx.refs[key]
            allowed = MC_MATCH_SE * math.hypot(est.stderr, ref_se)
            diff = abs(est.estimate - ref_est)
            return None if diff <= allowed else (
                f"estimate {est.estimate:.5f} vs stored {ref_est:.5f}: {diff:.3g} > {allowed:.3g}")

        def ref_estimate(p=policy):
            est = wc.mc_policy_value(L, p, phi, "special", 200, MC_PATHS, REF_MC_SEED, rule=rule)
            return [est.estimate, est.stderr]

        seed = inputs["mc_seed"] + 10 + k
        ops.append(Op(f"mc {policy.label} n=200", "worst_case",
                      lambda p=policy, s=seed: wc.mc_policy_value(
                          L, p, phi, "special", 200, MC_PATHS, s, rule=rule),
                      check_match, key, ref_estimate))

    def coverage_residual(kappa, alpha, ab):
        cover = cf.upper_indicator_limit(ac.interval(-kappa, kappa), ab[0], ab[1])
        resid = abs(cover - (1.0 - alpha))
        return None if resid <= CALIBRATION_TOL else f"coverage residual {resid:.3g}"

    for kappa in inputs["hyptest_kappas"]:
        for alpha in inputs["alphas"]:
            spec = hyp.TestSpec(kappa, 1.0, alpha)

            def calibrate_both(spec=spec):
                a_sym, b_sym = hyp.calibrate_interval(spec)
                return (a_sym, b_sym), hyp.calibrate_interval(spec, symmetric=False,
                                                              a=a_sym - 0.25)

            def check_both(res, kappa=kappa, alpha=alpha):
                return coverage_residual(kappa, alpha, res[0]) or coverage_residual(
                    kappa, alpha, res[1])

            ops.append(Op(f"hyptest calibrate kappa={kappa} alpha={alpha}", "hyptest",
                          calibrate_both, check_both))

    spec = hyp.TestSpec(inputs["hyptest_kappas"][1], 1.0, inputs["alphas"][0])
    sym = hyp.calibrate_interval(spec)
    for xi in inputs["xis"]:
        def check_opt(res, xi=xi):
            a, b_opt, value = res
            sym_value = hyp.wrong_acceptance(spec, sym[0], sym[1], xi)
            if value > sym_value + CALIBRATION_TOL:
                return f"optimum {value:.6g} above the symmetric interval's {sym_value:.6g}"
            return coverage_residual(spec.kappa, spec.alpha, (a, b_opt))

        ops.append(Op(f"hyptest optimize_ab xi={xi}", "hyptest",
                      lambda xi=xi: hyp.optimize_ab(spec, xi), check_opt))

    spec0 = hyp.TestSpec(0.0, 1.0, 0.05)
    a0, b0 = hyp.calibrate_interval(spec0)
    fair = ac.MeasureSet((ac.DiscreteMeasure((1, -1), ("1/2", "1/2")),))
    ops.append(Op("hyptest size_power n=400 10k paths", "hyptest",
                  lambda: hyp.size_power_simulation(fair, spec0, a0, b0, 0.0, 400, 10_000,
                                                    inputs["mc_seed"] + 20),
                  lambda r: None if abs(r[0] - 0.95) <= SIZE_TOL
                  else f"accept rate {r[0]:.4f} not within {SIZE_TOL} of 0.95"))

    kappa = inputs["hyptest_kappas"][2]
    alpha = inputs["alphas"][1]
    cf_argv = ["closed-form", f"--mu-lo={-kappa!r}", f"--mu-hi={kappa!r}",
               f"--a={-bf!r}", f"--b={bf!r}"]
    ops.append(Op("cli closed-form", "cli", lambda: ctx.run_cli("closed-form", cf_argv),
                  lambda pay: None if pay["value"] == cf.upper_indicator_limit(
                      ac.interval(-kappa, kappa), -bf, bf) else "value != library"))

    small = pde.PdeGrid(-10.0, 10.0, 401, 400)
    pde_argv = ["pde", f"--kappa={kappa!r}", f"--a={-bf!r}", f"--b={bf!r}", "--h=0.05",
                "--nx=401", "--nt=400", "--domain=10"]

    def check_cli_pde(pay):
        want = ctx.cached("pde", lambda: pde.epsilon_extrapolate(
            TF.smoothed_indicator(-bf, bf, 0.05), kappa, small, EPS_SWEEP).extrapolated)
        return None if pay["extrapolated"] == want else (
            f"extrapolated {pay['extrapolated']!r} != library {want!r}")

    ops.append(Op("cli pde nx=401", "cli", lambda: ctx.run_cli("pde", pde_argv),
                  check_cli_pde))
    hyp_argv = ["hyptest", f"--kappa={kappa!r}", f"--alpha={alpha!r}"]
    ops.append(Op("cli hyptest", "cli", lambda: ctx.run_cli("hyptest", hyp_argv),
                  lambda pay: None if [pay["a"], pay["b"]] == list(hyp.calibrate_interval(
                      hyp.TestSpec(kappa, 1.0, alpha))) else "a, b != library"))
    return ops


WORKLOADS = {
    "dp_float_large": dp_float_large,
    "dp_exact_small": dp_exact_small,
    "limits_mc": limits_mc,
}

# the probe pieces (probe.PIECES) whose speed each workload's time follows
PROBE_PIECES = {
    "dp_float_large": ("fractions",),
    "dp_exact_small": ("fractions",),
    "limits_mc": ("fractions", "small_arrays", "large_arrays"),
}
