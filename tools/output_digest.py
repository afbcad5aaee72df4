"""Print SHA-256 digests of the Monte Carlo and PDE outputs, to compare two trees.

Usage, with the package of the tree under test on the path:

    PYTHONPATH=CHECKOUT/src python3 tools/output_digest.py

Run it once per checkout and compare the printed lines: equal digests mean
the outputs are equal byte for byte.  It covers
``simulate_statistic_values`` and ``mc_policy_value`` (three measure sets,
switching centers 0, 0.17 and +/-inf, every variant, ``scaled`` also with
alpha, beta != 1, every builtin policy, with the default chunk and with a
chunk of 7 paths), ``size_power_simulation``, ``epsilon_extrapolate`` at
kappa 0, 0.3 and 0.6, PDE profiles, and the ``ambiclt mc`` and ``ambiclt pde``
payloads.  It takes about a minute on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math

import numpy as np

from ambiclt import cli, hyptest, pde, worst_case
from ambiclt.measures import DiscreteMeasure, MeasureSet, coin_example, validate_measure_set
from ambiclt.statistics import SwitchRule
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
    ["pde", "--kappa", "0", "--a", "-1", "--b", "1", "--nx", "401", "--nt", "400"],
    ["pde", "--kappa", "0.3", "--a", "-1", "--b", "1", "--nx", "401", "--nt", "400"],
)


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


def main() -> int:
    digests = {name: hashlib.sha256() for name in (
        "simulate_statistic_values", "mc_policy_value", "size_power_simulation",
        "epsilon_extrapolate", "pde_profiles", "cli_payloads")}
    monte_carlo(digests["simulate_statistic_values"], digests["mc_policy_value"])

    spec = hyptest.TestSpec(0.3, 1.0, 0.05)
    for theta in (0.0, 0.1):
        for a, b in ((-1.0, 1.0), (-0.5, 1.5)):
            rate = hyptest.size_power_simulation(COIN, spec, a, b, theta, 30, 5000, 11)
            digests["size_power_simulation"].update(np.array(rate).tobytes())

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
