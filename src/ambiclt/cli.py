"""Command-line front end.

Subcommands mirror the library surface: ``closed-form`` (indicator limits),
``pde`` (g-expectation solves with eps extrapolation), ``dp`` (worst-case
dynamic programs, single values or convergence tables), ``mc`` (seeded policy
Monte Carlo), ``lln`` (shorthand for ``dp --theorem lln``), ``hyptest``
(calibration, power curves, decisions on data), and ``report`` (the
acceptance matrix).

Runs are reproducible: identical configuration and seed give byte-identical
payloads.  JSON reports use stable key ordering and carry the resolved
configuration, a version string, and per-value provenance; CSV files carry a
header row.  Wall-clock columns are emitted only with ``--timing``.
Defaults < config ``[global]`` < config ``[<command>]`` < explicit flags, in
that precedence order: argparse reads the config values as flags spliced in
ahead of the command line's own.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from typing import NamedTuple

from . import __version__, worst_case
from ._exact import to_fraction
from .closed_form import (
    indicator_limit_detail,
    lower_indicator_limit,
    upper_indicator_limit,
)
from .hyptest import (
    NoConvergence,
    TestSpec,
    ThetaSet,
    calibrate_interval,
    residual_statistic,
    size_power_simulation,
    test_decision,
    wrong_acceptance,
)
from .measures import (
    coin_example,
    interval,
    load_measure_set,
    validate_measure_set,
)
from .pde import PdeGrid, UnstableGrid, epsilon_extrapolate
from .statistics import SwitchRule, increment, read_path_csv
from .terminal import TerminalFunction
from .worst_case import (
    StateExplosion,
    builtin_policies,
    convergence_report,
    mc_policy_value,
)

EXIT_OK = 0
EXIT_REPORT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4
EXIT_CAPACITY = 5


class ConfigError(ValueError):
    """Bad flags, config file, or flag combinations."""


# checked in order: a ConfigError is a ValueError, and so is UnstableGrid;
# every other domain error of the library subclasses ValueError
_EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    (StateExplosion, EXIT_CAPACITY),
    (NoConvergence, EXIT_NUMERIC),
    (UnstableGrid, EXIT_NUMERIC),
    (ValueError, EXIT_DOMAIN),
)


def _error_record(exc: Exception) -> str:
    return json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
    )


def _payload(command: str, operation: str, parameters: dict, body: dict) -> dict:
    return {
        "version": __version__,
        "config": dict(sorted(parameters.items())),
        "provenance": {
            "module": _PROVENANCE_MODULE[command],
            "operation": operation,
            "parameters": dict(sorted(parameters.items())),
        },
        **body,
    }


_PROVENANCE_MODULE = {
    "closed-form": "closed_form",
    "pde": "pde",
    "dp": "worst_case",
    "lln": "worst_case",
    "mc": "worst_case",
    "hyptest": "hyptest",
    "report": "acceptance",
}


def _emit(args, payload: dict, csv_rows=None, csv_header=None) -> None:
    # only dp and lln pass rows, and only they have --format
    if csv_rows is not None and args.format == "csv":
        text_io = open(args.output, "w", encoding="utf-8", newline="") if args.output else sys.stdout
        try:
            writer = csv.writer(text_io)
            writer.writerow(csv_header)
            for row in csv_rows:
                writer.writerow(row)
        finally:
            if args.output:
                text_io.close()
        return
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _read_input(read, path: str, what: str):
    """read(path), with a file that cannot be opened reported as a ConfigError."""
    try:
        return read(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path!r}: {exc.strerror}") from exc


def _measure_set(args):
    if getattr(args, "measures", None):
        return _read_input(load_measure_set, args.measures, "measures")
    p = getattr(args, "p", None)
    q = getattr(args, "q", None)
    if p is None or q is None:
        raise ConfigError("need --measures FILE or coin parameters --p and --q")
    return coin_example(repr(p), repr(q))


def _endpoints(args) -> tuple[float, float]:
    """--a and --b, an omitted one as -inf or inf."""
    return (-math.inf if args.a is None else args.a, math.inf if args.b is None else args.b)


def _terminal(args) -> TerminalFunction:
    if args.a is None and args.b is None:
        raise ConfigError("need at least one of --a/--b for the indicator")
    a, b = _endpoints(args)
    if args.h is not None:
        return TerminalFunction.smoothed_indicator(a, b, args.h)
    # a finite endpoint goes in as its shortest decimal, read exactly
    return TerminalFunction.indicator(*(x if math.isinf(x) else repr(x) for x in (a, b)))


def _statistic_inputs(args) -> tuple:
    """The measure set, payoff and switching rule of dp, lln and mc; the
    rule's center defaults to the payoff's, or 0."""
    L = _measure_set(args)
    iv = validate_measure_set(L)
    phi = _terminal(args)
    return L, phi, SwitchRule(args.c if args.c is not None else (phi.center or 0.0), iv)


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_closed_form(args) -> int:
    iv = interval(args.mu_lo, args.mu_hi)
    a, b = _endpoints(args)
    detail = indicator_limit_detail(iv, a, b, args.side)
    params = {"mu_lo": args.mu_lo, "mu_hi": args.mu_hi, "a": a, "b": b, "side": args.side}
    _emit(args, _payload("closed-form", "upper_indicator_limit"
                         if args.side == "upper" else "lower_indicator_limit",
                         params, detail))
    return EXIT_OK


def _run_pde(args) -> int:
    if args.a is None or args.b is None:
        raise ConfigError("pde needs both --a and --b")
    half = args.domain
    grid = PdeGrid(-half, half, args.nx, args.nt)
    eps_seq = args.eps
    phi = TerminalFunction.smoothed_indicator(args.a, args.b, args.h)
    res = epsilon_extrapolate(phi, args.kappa, grid, eps_seq)
    iv = interval(-args.kappa, args.kappa)
    reference = upper_indicator_limit(iv, args.a, args.b)
    params = {
        "kappa": args.kappa, "eps": list(eps_seq), "a": args.a, "b": args.b,
        "h": args.h, "nx": args.nx, "nt": args.nt, "domain": half,
    }
    body = {
        "value_per_eps": {repr(e): v for e, v in zip(res.epsilons, res.values)},
        "extrapolated": res.extrapolated,
        "closed_form_reference": reference,
        "gaps": {repr(e): v - reference for e, v in zip(res.epsilons, res.values)},
        "extrapolated_gap": res.extrapolated - reference,
    }
    _emit(args, _payload("pde", "epsilon_extrapolate", params, body))
    return EXIT_OK


class _Theorem(NamedTuple):
    operation: str  # the worst_case function of a single-n value, named in the provenance
    side: str | None  # side of the indicator limit the values converge to


_THEOREMS = {
    "clt": _Theorem("sup_dp_clt", "upper"),
    "special": _Theorem("sup_dp_special", "upper"),
    "tilde": _Theorem("inf_dp_special_tilde", "lower"),
    "deviation": _Theorem("sup_dp_deviation", None),
    "lln": _Theorem("sup_dp_lln", None),
    "scaled": _Theorem("sup_dp_scaled", None),
}


# columns of the dp/lln CSV: one row per horizon, a single --n gives one row
_CSV_HEADER = ("theorem", "n", "value", "reference", "gap")


def _centered(c: float, a: float, b: float) -> bool:
    """Whether c is the midpoint of a finite [a, b]: as the default c is, in
    floats, or exactly, each number read through its shortest decimal."""
    if not all(map(math.isfinite, (a, b, c))):
        return False
    return c == 0.5 * (a + b) or to_fraction(c) == (to_fraction(a) + to_fraction(b)) / 2


def _run_dp(args, theorem=None) -> int:
    theorem = theorem or args.theorem
    L, phi, rule = _statistic_inputs(args)
    # every theorem takes them; the weights are read as their shortest decimals
    dp_kw = {"rule": rule, "alpha": repr(args.alpha_scale), "beta": repr(args.beta_scale)}
    params = {
        "theorem": theorem, "a": args.a, "b": args.b, "c": rule.center,
        "p": getattr(args, "p", None), "q": getattr(args, "q", None),
        "measures": getattr(args, "measures", None),
        "alpha_scale": args.alpha_scale, "beta_scale": args.beta_scale,
    }
    if args.h is not None:  # only when given, so a sharp run's payload stays as it is
        params["h"] = args.h
    spec = _THEOREMS[theorem]
    limit, off_center = None, False
    if spec.side is not None and args.a is not None and args.b is not None:
        # off the indicator's midpoint a switching rule has another limit
        off_center = increment(theorem).switching and not _centered(rule.center, args.a, args.b)
        if not off_center:
            side_limit = upper_indicator_limit if spec.side == "upper" else lower_indicator_limit
            limit = side_limit(rule.interval, args.a, args.b)
    if args.n_list:
        reference = limit if args.reference is None else args.reference
        if reference is None:
            raise ConfigError("convergence table needs --reference: the closed form is the "
                              "limit only at c = (a + b)/2" if off_center else
                              "convergence table needs --reference for this theorem")
        report = convergence_report(L, phi, args.n_list, reference, variant=theorem,
                                    minimize=(theorem == "tilde"), **dp_kw)
        header = list(_CSV_HEADER)
        rows = [[theorem, r.n, repr(r.value), repr(report.limit_reference), repr(r.gap)]
                for r in report.rows]
        if args.timing:
            header.append("runtime_s")
            for row, r in zip(rows, report.rows):
                row.append(f"{r.runtime:.3f}")
        body = {
            "rows": [
                {"n": r.n, "value": r.value, "gap": r.gap} for r in report.rows
            ],
            "reference": report.limit_reference,
            "gaps_monotone": report.gaps_monotone,
        }
        params["n_list"] = list(args.n_list)
        _emit(args, _payload("dp", "convergence_report", params, body),
              csv_rows=rows, csv_header=header)
        return EXIT_OK
    if args.n is None:
        raise ConfigError("need --n or --n-list")
    params["n"] = args.n
    # looked up at call time, so a function replaced on the module is the one run
    value = getattr(worst_case, spec.operation)(L, phi, args.n, **dp_kw)
    body = {"value": float(value)}
    row = [theorem, args.n, repr(float(value)), "", ""]
    if limit is not None:
        body["limit_reference"] = limit
        body["gap"] = abs(float(value) - limit)
        row[3:] = [repr(limit), repr(body["gap"])]
    _emit(args, _payload("dp", spec.operation, params, body),
          csv_rows=[row], csv_header=_CSV_HEADER)
    return EXIT_OK


def _run_mc(args) -> int:
    L, phi, rule = _statistic_inputs(args)
    stock = {p.label: p for p in builtin_policies(L, rule)}
    if args.policy not in stock:
        raise ConfigError(f"unknown policy {args.policy!r}; choose from {sorted(stock)}")
    est = mc_policy_value(
        L, stock[args.policy], phi, args.theorem, args.n, args.paths, args.seed,
        rule=rule, alpha=args.alpha_scale, beta=args.beta_scale,
    )
    params = {
        "theorem": args.theorem, "policy": args.policy, "n": args.n,
        "paths": args.paths, "seed": args.seed, "a": args.a, "b": args.b,
        "c": rule.center,
    }
    if args.h is not None:
        params["h"] = args.h
    body = {"estimate": est.estimate, "stderr": est.stderr}
    _emit(args, _payload("mc", "mc_policy_value", params, body))
    return EXIT_OK


def _run_hyptest(args) -> int:
    spec = TestSpec(kappa=args.kappa, sigma=args.sigma, alpha=args.alpha, theta0=args.theta0)
    a_cal, b_cal = calibrate_interval(spec)
    coverage = wrong_acceptance(spec, a_cal, b_cal, 0.0)
    xi_grid = [args.xi] if args.xi else []
    xi_grid += [x / 2.0 for x in range(-6, 7)]
    power_curve = sorted(
        {round(x, 6): wrong_acceptance(spec, a_cal, b_cal, x) for x in xi_grid}.items()
    )
    params = {
        "kappa": args.kappa, "alpha": args.alpha, "xi": args.xi,
        "theta0": args.theta0, "sigma": args.sigma, "n": args.n,
        "paths": args.paths, "seed": args.seed, "data": args.data,
    }
    body = {
        "a": a_cal,
        "b": b_cal,
        "coverage": coverage,
        "power_curve": [[x, v] for x, v in power_curve],
    }
    if args.data:
        xs = _read_input(read_path_csv, args.data, "data")
        m_resid = residual_statistic(xs, spec, a_cal, b_cal)
        body["decision"] = test_decision(
            args.theta0 + m_resid, a_cal, b_cal, ThetaSet.point(args.theta0)
        )
        body["residual_statistic"] = m_resid
    elif args.paths:
        if not args.n:
            raise ConfigError("simulation needs --n alongside --paths")
        L = _error_law(args.kappa, args.sigma)
        rate, stderr = size_power_simulation(
            L, spec, a_cal, b_cal, theta_true=args.theta0 + args.xi,
            n=args.n, paths=args.paths, seed=args.seed,
        )
        body["accept_rate"] = rate
        body["accept_stderr"] = stderr
    _emit(args, _payload("hyptest", "calibrate_interval", params, body))
    return EXIT_OK


def _error_law(kappa: float, sigma: float):
    """A stock error law matching (kappa, sigma): a scaled fair coin when
    the mean is unambiguous, otherwise the three-outcome coin."""
    from .measures import DiscreteMeasure, MeasureSet

    if kappa == 0.0:
        return MeasureSet(
            (DiscreteMeasure((repr(sigma), repr(-sigma)), ("1/2", "1/2")),)
        )
    risk = sigma * sigma + kappa * kappa
    p = (risk + kappa) / 2.0
    q = (risk - kappa) / 2.0
    if q <= 0 or p + q > 1:
        raise ConfigError(
            f"no three-outcome coin has kappa={kappa}, sigma={sigma}; "
            "supply data instead"
        )
    return coin_example(repr(p), repr(q))


def _run_report(args) -> int:
    from . import acceptance

    ids = None
    if args.criteria:
        ids = [int(tok) for tok in args.criteria.split(",") if tok.strip()]
    results = acceptance.run_criteria(ids)
    header = ["criterion", "description", "passed", "detail"]
    rows = [[r.cid, r.description, "PASS" if r.passed else "FAIL", r.detail]
            for r in results]
    if args.timing:
        header.append("runtime_s")
        for row, r in zip(rows, results):
            row.append(f"{r.runtime:.2f}")
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} criterion {r.cid}: {r.description} [{r.detail}]")
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)
    return EXIT_OK if all(r.passed for r in results) else EXIT_REPORT_FAIL


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, seeded=False, formats=False, timing=False):
    sub.add_argument("--config", nargs="?", const="",
                     help="INI config file; flags override its values")
    sub.add_argument("--output", help="write the report here instead of stdout")
    if formats:
        sub.add_argument("--format", choices=["json", "csv"], default="json")
    if timing:
        sub.add_argument("--timing", action="store_true",
                         help="include wall-clock columns (breaks byte-reproducibility)")
    if seeded:
        sub.add_argument("--seed", type=int, default=0)


def _add_statistic_flags(sub):
    sub.add_argument("--a", type=float, default=None)
    sub.add_argument("--b", type=float, default=None)
    sub.add_argument("--c", type=float, default=None,
                     help="switching center (defaults to the indicator center)")
    sub.add_argument("--h", type=float, default=None, help="mollification bandwidth")
    sub.add_argument("--p", type=float, default=None, help="coin favorable probability")
    sub.add_argument("--q", type=float, default=None, help="coin unfavorable probability")
    sub.add_argument("--measures", help="measure-set config file (value:prob lines)")
    sub.add_argument("--alpha-scale", type=float, default=1.0, dest="alpha_scale")
    sub.add_argument("--beta-scale", type=float, default=1.0, dest="beta_scale")


def _add_required(sub, flag, **kw):
    """An option the subcommand cannot run without.  argparse would check
    it while parsing argv, before main splices a config file in, so it is
    declared optional and :func:`_check_required` checks it afterwards."""
    action = sub.add_argument(flag, default=None,
                              help="required; may come from the config file", **kw)
    required = sub.get_default("required") or ()
    sub.set_defaults(parser=sub, required=(*required, action))


def _check_required(args) -> None:
    """argparse's own error for required options still missing after the
    config splice: usage text, message, exit 2."""
    missing = ["/".join(action.option_strings) for action in getattr(args, "required", ())
               if getattr(args, action.dest) is None]
    if missing:
        args.parser.error("the following arguments are required: " + ", ".join(missing))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambiclt",
        description="worst-case central limit numerics under mean ambiguity",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    cf = subs.add_parser("closed-form", help="closed-form indicator limits")
    _add_required(cf, "--mu-lo", type=float, dest="mu_lo")
    _add_required(cf, "--mu-hi", type=float, dest="mu_hi")
    cf.add_argument("--a", type=float, default=None)
    cf.add_argument("--b", type=float, default=None)
    cf.add_argument("--side", choices=["upper", "lower"], default="upper")
    _add_common(cf)
    cf.set_defaults(handler=_run_closed_form)

    pde = subs.add_parser("pde", help="g-expectation PDE solves")
    _add_required(pde, "--kappa", type=float)
    pde.add_argument("--eps", type=float, nargs="+", default=[0.2, 0.1, 0.05, 0.025])
    pde.add_argument("--a", type=float, default=None)
    pde.add_argument("--b", type=float, default=None)
    pde.add_argument("--h", type=float, default=0.05)
    pde.add_argument("--nx", type=int, default=2001)
    pde.add_argument("--nt", type=int, default=2000)
    pde.add_argument("--domain", type=float, default=10.0, help="half-width")
    _add_common(pde)
    pde.set_defaults(handler=_run_pde)

    dp = subs.add_parser("dp", help="worst-case dynamic programs")
    dp.add_argument("--theorem", choices=list(_THEOREMS), default="special")
    dp.add_argument("--n", type=int, default=None)
    dp.add_argument("--n-list", type=int, nargs="+", default=[], dest="n_list")
    dp.add_argument("--reference", type=float, default=None)
    _add_statistic_flags(dp)
    _add_common(dp, formats=True, timing=True)
    dp.set_defaults(handler=_run_dp)

    lln = subs.add_parser("lln", help="worst-case sample-mean expectations")
    lln.add_argument("--n", type=int, default=None)
    lln.add_argument("--n-list", type=int, nargs="+", default=[], dest="n_list")
    lln.add_argument("--reference", type=float, default=None)
    _add_statistic_flags(lln)
    _add_common(lln, formats=True, timing=True)
    lln.set_defaults(handler=lambda args: _run_dp(args, theorem="lln"))

    mc = subs.add_parser("mc", help="seeded policy Monte Carlo")
    mc.add_argument("--theorem", choices=list(_THEOREMS), default="special")
    _add_required(mc, "--n", type=int)
    mc.add_argument("--paths", type=int, default=10000)
    mc.add_argument("--policy", default="threshold")
    _add_statistic_flags(mc)
    _add_common(mc, seeded=True)
    mc.set_defaults(handler=_run_mc)

    hyp = subs.add_parser("hyptest", help="robust hypothesis testing")
    _add_required(hyp, "--kappa", type=float)
    hyp.add_argument("--sigma", type=float, default=1.0)
    hyp.add_argument("--alpha", type=float, default=0.05)
    hyp.add_argument("--xi", type=float, default=0.0)
    hyp.add_argument("--theta0", type=float, default=0.0)
    hyp.add_argument("--n", type=int, default=None)
    hyp.add_argument("--paths", type=int, default=None)
    hyp.add_argument("--data", help="CSV of observations, one per row")
    _add_common(hyp, seeded=True)
    hyp.set_defaults(handler=_run_hyptest)

    rep = subs.add_parser("report", help="run verification suites")
    rep.add_argument("--suite", choices=["acceptance"], default="acceptance")
    rep.add_argument("--criteria", help="comma-separated criterion ids, default all")
    _add_common(rep, timing=True)
    rep.set_defaults(handler=_run_report)
    return parser


# namespace entries that are not options a config file may set
_NOT_OPTIONS = ("command", "handler", "config", "parser", "required")


def _config_argv(argv: list[str], args) -> list[str]:
    """argv with the config file's values spliced in as flags right after
    the subcommand: ``[global]`` first, then ``[<command>]``, so argparse's
    last-wins rule gives defaults < global < command < flags.  Keys that are
    not options of the subcommand are skipped; booleans take 1, true, yes."""
    if not args.config:
        raise ConfigError("--config needs a file path")
    ini = configparser.ConfigParser()
    if not ini.read(args.config):
        raise ConfigError(f"cannot read config file {args.config!r}")
    merged: dict = {}
    for section in ("global", args.command):
        if ini.has_section(section):
            merged.update(ini.items(section))
    tokens = []
    for key, raw in merged.items():
        if key in _NOT_OPTIONS or not hasattr(args, key):
            continue
        flag = "--" + key.replace("_", "-")
        current = getattr(args, key)
        if isinstance(current, bool):  # a store_true switch
            if raw.lower() in ("1", "true", "yes"):
                tokens.append(flag)
        elif isinstance(current, list):  # nargs="+": the defaults are lists
            tokens += [flag, *raw.split()]
        else:
            tokens.append(f"{flag}={raw}")
    at = argv.index(args.command) + 1
    return argv[:at] + tokens + argv[at:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(_config_argv(argv, args))
        _check_required(args)
        return args.handler(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(_error_record(exc), file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
