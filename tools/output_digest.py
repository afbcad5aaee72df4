"""Print SHA-256 digests of the DP, Monte Carlo and PDE outputs, to compare two trees.

Usage, with the package of the tree under test on the path:

    PYTHONPATH=CHECKOUT/src python3 tools/output_digest.py

Run it once per checkout and compare the printed lines: equal digests mean
the outputs are equal byte for byte.  It covers the worst-case dynamic
program (``_dp_value`` in exact and float mode for every variant, on the
coin, the shifted coin and a set with the outcome 10**-18, under one-sided,
two-sided and smoothed indicators), ``product_model_value``,
``band_probability_sup`` at every m of n = 9,
``simulate_statistic_values`` and ``mc_policy_value`` (three measure sets,
switching centers 0, 0.17 and +/-inf, every variant, ``scaled`` also with
alpha, beta != 1, every builtin policy, with the default chunk and with a
chunk of 7 paths), the statistics fold (``path_statistic`` exact and float,
``statistic_trace`` and ``residual_statistic`` on seeded paths),
``enumerate_worst_case`` for every variant at n <= 6 with switching centers
0, 0.17 and +/-inf, ``size_power_simulation``, ``optimize_ab`` (the optimal
interval and its value at kappa 0, 0.3 and 0.6, alpha 0.01 and 0.05, and
offsets -1, 0.5 and 2; ``hyptest_optimize``), ``epsilon_extrapolate`` at
kappa 0, 0.3 and 0.6, PDE profiles, the closed form (``closed_form``:
``indicator_limit_detail`` on both sides over seeded shifted mean intervals,
with endpoints on the branch line a + b = mu_lo + mu_hi and one-sided ends,
and ``monotone_reduction`` on left, right and constant payoffs, each
hashed by its endpoints, whether it is sharp and, if not, its bandwidth),
and the CLI payloads: ``ambiclt mc``, ``pde``, ``closed-form`` (upper, lower,
one-sided), ``hyptest`` (calibration alone and with ``--paths``), and
``dp`` and ``lln`` with one or both endpoints, single-n and ``--n-list``
tables, JSON and CSV.  Two digests
cover the dynamic program further: ``dp_layers``, the per-state tables of
``dp_lattice`` (every layer's keys and values, and its count of exact
tests) at n = 5 and 12, and ``dp_float_long``, float ``special`` and
``tilde`` values at n = 40 and 64 with switching centers 0 and 0.17.  A
third, ``dp_float_bench``, covers the float calls of the benchmark's
``dp_float_large`` workload over its coins and indicator half-widths:
``clt`` at n = 24, ``lln`` at n = 160, ``special`` on the coin shifted by
+/-1/10 at n = 32, and ``special`` with switching center 0.5 and with a
smoothed indicator at n = 80.  ``dp_exact_long`` takes exact ``special`` and
``tilde`` to n = 24 and 40 on the coin and the shifted coin (switching
centers 0 and 0.17, every sharp payoff), where many more cells take the exact
sign test than at n <= 12, and ``condition1`` covers
``condition1_diagnostic`` on the DP's sets at n = 9 and 24 (centers 0 and
0.17, delta 1/10, 10/27 and 10**-30).  It takes about 80 s on one core
of a 2-core VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from fractions import Fraction

import numpy as np

from ambiclt import cli, closed_form, hyptest, pde, worst_case
from ambiclt.measures import (DiscreteMeasure, MeasureSet, coin_example, interval,
                              validate_measure_set)
from ambiclt.statistics import (VARIANT_M, VARIANT_TILDE, SwitchRule, condition1_diagnostic,
                                path_statistic, statistic_trace)
from ambiclt.terminal import TerminalFunction

COIN = coin_example("3/5", "3/10")
SETS = (
    COIN,
    coin_example("0.55", "0.25"),
    MeasureSet(COIN.laws + (DiscreteMeasure((1, -1, 0), ("0.405", "0.405", "0.19")),))
    .shifted("1/10"),
)
CENTERS = (0.0, 0.17, math.inf, -math.inf)
BOX = TerminalFunction.indicator(-1, 1)


def three_point_law(values, mean, variance) -> DiscreteMeasure:
    """The law on three distinct values with the given mean and variance."""
    values = [Fraction(v) for v in values]
    mean, second = Fraction(mean), Fraction(variance) + Fraction(mean) ** 2
    probs = []
    for i, xi in enumerate(values):
        a, b = (x for j, x in enumerate(values) if j != i)
        probs.append((second - (a + b) * mean + a * b) / ((xi - a) * (xi - b)))
    return DiscreteMeasure(tuple(values), tuple(probs))


# the DP's sets: a unit of 10**-18 takes its numerators past 2**53
DP_SETS = (COIN, COIN.shifted("1/10"), MeasureSet(tuple(
    three_point_law((-1, "1/1000000000000000000", 1), mean, "81/100")
    for mean in ("3/10", "-3/10"))))
SHARP = (TerminalFunction.left(0), TerminalFunction.right("1/3"),
         TerminalFunction.left(0.5), BOX, TerminalFunction.indicator("-1/3", "2/5"))
SMOOTH = (TerminalFunction.smoothed_indicator(-1, 1, 0.05),
          TerminalFunction.smoothed_indicator(-math.inf, 0.5, 0.1))
DP_HORIZONS = (1, 5, 9, 12)
# (chunk, [(n, paths)]): None keeps the default chunk
CHUNKINGS = ((None, [(1, 5), (9, 23), (20, 8193), (13, 20_000)]),
             (7, [(1, 5), (9, 23), (6, 50)]))
CLI_RUNS = (
    ["mc", "--theorem", "special", "--p", "0.6", "--q", "0.3", "--a", "-1", "--b", "1",
     "--n", "30", "--paths", "20000", "--seed", "3"],
    ["mc", "--theorem", "scaled", "--p", "0.6", "--q", "0.3", "--a", "-1", "--b", "1",
     "--n", "10", "--paths", "5000", "--alpha-scale", "0.5", "--beta-scale", "2",
     "--policy", "anti-threshold"],
    ["mc", "--theorem", "tilde", "--p", "0.6", "--q", "0.3", "--a", "-1", "--b", "1",
     "--c", "0.2", "--n", "15", "--paths", "9000", "--policy", "alternating"],
    ["mc", "--theorem", "special", "--p", "0.6", "--q", "0.3", "--b", "0.5",
     "--n", "12", "--paths", "5000"],
    ["mc", "--theorem", "clt", "--p", "0.6", "--q", "0.3", "--a", "-0.5",
     "--n", "12", "--paths", "5000"],
    ["dp", "--theorem", "special", "--p", "0.6", "--q", "0.3", "--a", "-1", "--n", "20"],
    ["dp", "--theorem", "tilde", "--p", "0.6", "--q", "0.3", "--b", "0.5", "--n", "20"],
    ["dp", "--theorem", "clt", "--p", "0.6", "--q", "0.3", "--a", "-1", "--b", "1",
     "--n", "20"],
    ["dp", "--theorem", "special", "--p", "0.6", "--q", "0.3", "--a", "-1", "--b", "1",
     "--h", "0.1", "--n", "12"],
    ["dp", "--theorem", "lln", "--p", "0.6", "--q", "0.3", "--a", "0.1", "--h", "0.1",
     "--n", "12"],
    ["dp", "--theorem", "special", "--p", "0.6", "--q", "0.3", "--a", "-1", "--b", "1",
     "--n", "8", "--format", "csv"],
    ["dp", "--theorem", "tilde", "--p", "0.6", "--q", "0.3", "--a", "-1", "--b", "1",
     "--c", "0.2", "--n-list", "4", "8", "--reference", "0.3"],
    ["dp", "--theorem", "scaled", "--p", "0.6", "--q", "0.3", "--a", "-1", "--b", "1",
     "--alpha-scale", "0.5", "--beta-scale", "2", "--n-list", "4", "8", "--reference",
     "0.5", "--format", "csv"],
    ["dp", "--theorem", "special", "--p", "0.6", "--q", "0.4", "--a", "-1", "--b", "1",
     "--n", "12"],
    ["lln", "--p", "0.6", "--q", "0.3", "--a", "0.1", "--b", "0.5", "--n", "16"],
    ["lln", "--p", "0.6", "--q", "0.3", "--a", "0.1", "--n-list", "4", "8",
     "--reference", "0.9", "--format", "csv"],
    ["closed-form", "--mu-lo", "-0.3", "--mu-hi", "0.3", "--a", "-1", "--b", "1"],
    ["closed-form", "--mu-lo", "-0.3", "--mu-hi", "0.3", "--a", "-1", "--b", "1",
     "--side", "lower"],
    ["closed-form", "--mu-lo", "-0.3", "--mu-hi", "0.5", "--b", "0.5"],
    ["closed-form", "--mu-lo", "-0.3", "--mu-hi", "0.5", "--a", "-0.5", "--side", "lower"],
    ["hyptest", "--kappa", "0.3", "--alpha", "0.05", "--xi", "0.5"],
    ["hyptest", "--kappa", "0.3", "--sigma", "0.9", "--theta0", "1", "--xi", "0.2",
     "--n", "50", "--paths", "4000", "--seed", "4"],
    ["pde", "--kappa", "0", "--a", "-1", "--b", "1", "--nx", "401", "--nt", "400"],
    ["pde", "--kappa", "0.3", "--a", "-1", "--b", "1", "--nx", "401", "--nt", "400"],
)


def dynamic_program(exact, floats, product, band):
    for L in DP_SETS:
        iv = validate_measure_set(L)
        for variant in worst_case.VARIANTS:
            switching = variant in ("special", "tilde")
            rules = [SwitchRule(c, iv) for c in CENTERS] if switching else [None]
            weights = [(1, 1)] + ([("1/2", 2)] if variant == "scaled" else [])
            for rule in rules:
                for alpha, beta in weights:
                    kw = dict(rule=rule, alpha=alpha, beta=beta, minimize=variant == "tilde")
                    for n in DP_HORIZONS:
                        for phi in SHARP + SMOOTH:
                            modes = ["float"] + (["exact"] if phi.supports_exact else [])
                            for mode in modes:
                                value = worst_case._dp_value(L, phi, n, variant,
                                                             value_mode=mode, **kw)
                                (exact if mode == "exact" else floats).update(
                                    repr(value).encode())
                            if not switching and n < 12:
                                product.update(repr(worst_case.product_model_value(
                                    L, phi, n, variant, alpha=alpha, beta=beta)).encode())
        for center in (0.0, 0.17):
            rule = SwitchRule(center, iv)
            for delta in (Fraction(1, 10), Fraction(10, 27), Fraction(1, 10**30)):
                for m in range(1, 10):
                    band.update(repr(worst_case.band_probability_sup(
                        L, 9, m, delta, rule)).encode())


def dp_layers(digest):
    for L in DP_SETS:
        iv = validate_measure_set(L)
        for variant in worst_case.VARIANTS:
            switching = variant in ("special", "tilde")
            rules = [SwitchRule(c, iv) for c in CENTERS] if switching else [None]
            weights = [(1, 1)] + ([("1/2", 2)] if variant == "scaled" else [])
            for rule in rules:
                for alpha, beta in weights:
                    kw = dict(rule=rule, alpha=alpha, beta=beta, minimize=variant == "tilde")
                    for n in (5, 12):
                        for phi in SHARP + SMOOTH:
                            for mode in ["float"] + (["exact"] if phi.supports_exact else []):
                                lattice = worst_case.dp_lattice(L, phi, n, variant,
                                                                value_mode=mode, **kw)
                                digest.update(repr((lattice.scale, lattice.layers,
                                                    lattice.exact_tests)).encode())


def dp_float_long(digest):
    for L in DP_SETS:
        iv = validate_measure_set(L)
        for center in (0.0, 0.17):
            rule = SwitchRule(center, iv)
            for variant in ("special", "tilde"):
                for n in (40, 64):
                    for phi in SHARP + SMOOTH:
                        digest.update(repr(worst_case._dp_value(
                            L, phi, n, variant, rule=rule, minimize=variant == "tilde",
                            value_mode="float")).encode())


def dp_float_bench(digest):
    for p, q in (("3/5", "3/10"), ("11/25", "7/50")):
        L = coin_example(p, q)
        rule, off = (SwitchRule(c, validate_measure_set(L)) for c in (0.0, 0.5))
        smooth = TerminalFunction.smoothed_indicator(-1, 1, 0.05)
        values = [worst_case.sup_dp_special(L, smooth, 80, rule, value_mode="float")]
        for b in ("1", "4/5", "6/5"):
            phi = TerminalFunction.indicator("-" + b, b)
            values += [worst_case.sup_dp_clt(L, phi, 24, value_mode="float"),
                       worst_case.sup_dp_lln(L, phi, 160, value_mode="float"),
                       worst_case.sup_dp_special(L, phi, 80, off, value_mode="float")]
            for shift in ("1/10", "-1/10"):
                shifted = L.shifted(shift)
                values.append(worst_case.sup_dp_special(
                    shifted, phi, 32, SwitchRule(0.0, validate_measure_set(shifted)),
                    value_mode="float"))
        digest.update(repr(values).encode())


def dp_exact_long(digest):
    for L in DP_SETS[:2]:
        iv = validate_measure_set(L)
        for center in (0.0, 0.17):
            rule = SwitchRule(center, iv)
            for variant in ("special", "tilde"):
                for n in (24, 40):
                    for phi in SHARP:
                        digest.update(repr(worst_case._dp_value(
                            L, phi, n, variant, rule=rule, minimize=variant == "tilde",
                            value_mode="exact")).encode())


def condition1(digest):
    for L in DP_SETS:
        iv = validate_measure_set(L)
        for center in (0.0, 0.17):
            rule = SwitchRule(center, iv)
            for n in (9, 24):
                for delta in (Fraction(1, 10), Fraction(10, 27), Fraction(1, 10**30)):
                    digest.update(repr(condition1_diagnostic(L, n, delta, rule)).encode())


def monte_carlo(simulate, estimate):
    default = worst_case._CHUNK_PATHS
    try:
        for chunk, shapes in CHUNKINGS:
            worst_case._CHUNK_PATHS = chunk or default
            for L in SETS:
                iv = validate_measure_set(L)
                for center in CENTERS:
                    rule = SwitchRule(center, iv)
                    for variant in worst_case.VARIANTS:
                        if center != 0.0 and variant not in ("special", "tilde"):
                            continue  # only the switching variants read the center
                        weights = [(1.0, 1.0)] + ([(0.7, 1.3)] if variant == "scaled" else [])
                        for alpha, beta in weights:
                            for k, pol in enumerate(worst_case.builtin_policies(L, rule)):
                                kw = dict(rule=rule, alpha=alpha, beta=beta)
                                for n, paths in shapes:
                                    simulate.update(worst_case.simulate_statistic_values(
                                        L, pol, variant, n, paths, 100 + k, **kw).tobytes())
                                est = worst_case.mc_policy_value(L, pol, BOX, variant, 12,
                                                                 3000, 7 + k, **kw)
                                estimate.update(np.array([est.estimate, est.stderr]).tobytes())
    finally:
        worst_case._CHUNK_PATHS = default


def fold(digest):
    rng = np.random.default_rng(5)
    for L in SETS:
        iv = validate_measure_set(L)
        for center in CENTERS:
            rule = SwitchRule(center, iv)
            for n in (1, 5, 9, 40, 200):
                for _ in range(3):
                    xs = [L.values[i] for i in rng.integers(len(L.values), size=n)]
                    for variant in (VARIANT_M, VARIANT_TILDE):
                        exact = path_statistic(xs, n, rule, variant, exact=True)
                        digest.update(repr((exact.key(), exact.s)).encode())
                        digest.update(repr(path_statistic(xs, n, rule, variant)).encode())
                        digest.update(repr(statistic_trace(xs, n, rule, variant)).encode())
    for theta0 in (0.0, 1.0, -0.3):
        for a, b in ((-1.0, 1.0), (-0.5, 1.5)):
            spec = hyptest.TestSpec(0.3, 0.9, 0.05, theta0=theta0)
            for n in (1, 7, 30):
                xs = list(theta0 + rng.normal(0.0, 0.9, n))
                digest.update(repr(hyptest.residual_statistic(xs, spec, a, b)).encode())


def oracle(digest):
    """Every sharp payoff at n <= 4, the box at n = 5 and, on the coin, n = 6;
    where each node has one center, every sharp payoff at n <= 6 in both
    senses."""
    for L in DP_SETS:
        iv = validate_measure_set(L)
        for variant in worst_case.VARIANTS:
            switching = variant in ("special", "tilde")
            rules = [SwitchRule(c, iv) for c in CENTERS] if switching else [None]
            weights = [(1, 1)] + ([("1/2", 2)] if variant == "scaled" else [])
            cheap = switching or variant == "lln"
            runs = [(n, phi) for n in range(1, 7 if cheap else 5) for phi in SHARP]
            if not cheap:
                runs += [(5, BOX)] + ([(6, BOX)] if L is COIN else [])
            for rule in rules:
                for alpha, beta in weights:
                    for minimize in (False, True) if cheap else (False,):
                        for n, phi in runs:
                            digest.update(repr(worst_case.enumerate_worst_case(
                                L, phi, n, variant, rule=rule, alpha=alpha, beta=beta,
                                minimize=minimize)).encode())


def closed_form_cases():
    """(request, answer) reprs of the closed-form digest, one pair per case."""
    rng = np.random.default_rng(13)
    requests = [(0.6, 1.33, -0.4, 2.33)]
    for _ in range(1500):
        # hundredths, so that a + b = mu_lo + mu_hi holds in decimals and
        # only the float sums decide the branch
        c, kappa, a = (int(v) for v in rng.integers((-200, 0, -400), (201, 151, 401)))
        lo, hi = (c - kappa) / 100, (c + kappa) / 100
        boundary = (2 * c - a) / 100
        a /= 100
        if a < boundary:
            requests.append((lo, hi, a, boundary))
        elif boundary < a:
            requests.append((lo, hi, boundary, a))
        width = float(rng.uniform(0.01, 4.0))
        requests.append((lo, hi, a, a + width))
        requests.append((lo, hi, -math.inf, a))
        requests.append((lo, hi, a, math.inf))
    out = []
    for lo, hi, a, b in requests:
        iv = interval(lo, hi)
        for side in ("upper", "lower"):
            detail = closed_form.indicator_limit_detail(iv, a, b, side)
            out.append((repr((lo, hi, a, b, side)), repr(detail)))
    payoffs = (TerminalFunction.left(0.5), TerminalFunction.right("-1/3"),
               TerminalFunction.smoothed_indicator(-math.inf, 0.5, 0.1),
               TerminalFunction.smoothed_indicator(-0.2, math.inf, 0.05),
               TerminalFunction.smoothed_indicator(-math.inf, math.inf, 1.0),
               TerminalFunction.indicator(-math.inf, math.inf))
    for kappa in (0.0, 0.3, 0.6):
        for center in (0.0, 0.25):
            iv = interval(center - kappa, center + kappa)
            for phi in payoffs:
                shape = (phi.a, phi.b, phi.supports_exact, None if phi.supports_exact else phi.h)
                out.append((repr((kappa, center, shape)), repr(pde.monotone_reduction(phi, iv))))
    return out


def main() -> int:
    digests = {name: hashlib.sha256() for name in (
        "dp_exact", "dp_float", "product_model_value", "band_probability_sup",
        "simulate_statistic_values", "mc_policy_value", "size_power_simulation",
        "epsilon_extrapolate", "pde_profiles", "cli_payloads", "fold", "oracle",
        "dp_layers", "dp_float_long", "dp_float_bench", "dp_exact_long", "condition1",
        "hyptest_optimize", "closed_form")}
    dynamic_program(digests["dp_exact"], digests["dp_float"],
                    digests["product_model_value"], digests["band_probability_sup"])
    dp_layers(digests["dp_layers"])
    dp_float_long(digests["dp_float_long"])
    dp_float_bench(digests["dp_float_bench"])
    dp_exact_long(digests["dp_exact_long"])
    condition1(digests["condition1"])
    monte_carlo(digests["simulate_statistic_values"], digests["mc_policy_value"])
    fold(digests["fold"])
    oracle(digests["oracle"])

    spec = hyptest.TestSpec(0.3, 1.0, 0.05)
    for theta in (0.0, 0.1):
        for a, b in ((-1.0, 1.0), (-0.5, 1.5)):
            rate = hyptest.size_power_simulation(COIN, spec, a, b, theta, 30, 5000, 11)
            digests["size_power_simulation"].update(np.array(rate).tobytes())
    for kappa in (0.0, 0.3, 0.6):
        for alpha in (0.01, 0.05):
            for xi in (-1.0, 0.5, 2.0):
                digests["hyptest_optimize"].update(
                    repr(hyptest.optimize_ab(hyptest.TestSpec(kappa, 1.0, alpha), xi)).encode())

    for request, answer in closed_form_cases():
        digests["closed_form"].update(f"{request} {answer}\n".encode())

    default, small = pde.PdeGrid.default(), pde.PdeGrid(-10.0, 10.0, 401, 400)
    runs = [(TerminalFunction.smoothed_indicator(-1, 1, 0.05), kappa, default,
             [0.2, 0.1, 0.05, 0.025], 0.0) for kappa in (0.0, 0.3, 0.6)]
    runs += [(TerminalFunction.smoothed_indicator(-1, 2, 0.1), kappa, small, sweep, 0.3)
             for kappa in (0.0, 0.45) for sweep in ([0.1], [0.2, 0.1, 0.05])]
    for phi, kappa, grid, sweep, x0 in runs:
        res = pde.epsilon_extrapolate(phi, kappa, grid, sweep, x0)
        digests["epsilon_extrapolate"].update(
            np.array([res.extrapolated, *res.epsilons, *res.values]).tobytes())
    for kappa in (0.0, 0.45):
        digests["pde_profiles"].update(pde.solve_g_expectation_profile(
            BOX, pde.GeneratorSpec(kappa, 0.05), small).tobytes())

    for argv in CLI_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        digests["cli_payloads"].update(f"{code}\n{out.getvalue()}".encode())

    for name, digest in digests.items():
        print(f"{name:26s} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
