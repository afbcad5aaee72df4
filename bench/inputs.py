"""Seeded input generator for the ambiclt benchmark.

``generate(seed)`` turns a workload seed into the inputs every workload
draws from.  Each choice is made from a fixed menu, so the inputs of any
seed are among those ``make_references.py`` computed reference values for.
Seed 0 picks the first entry of every menu: the coin (0.6, 0.3), the
indicator of [-1, 1] and the PDE kappas 0, 0.3 and 0.6 of acceptance
criterion 5.

The menus only vary what leaves the amount of work unchanged: coins whose
dynamic programs cost the same to within a few percent, mirror-image shifts,
indicator endpoints (the switching center stays 0, so the reachable states
do not move), kappa, alpha and xi values, and random-number seeds.  A seed
that changed the work would make run-to-run spread measure the inputs
instead of the program.

Only the standard library is used here, so the inputs can be generated (and
recorded) before ``ambiclt`` is imported.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

DEFAULT_SEED = 0
# Not used while the benchmark was tuned; keep it for confirming claims.
HELD_OUT_SEED = 2006168

COINS = (("3/5", "3/10"), ("11/25", "7/50"))
HALF_WIDTHS = ("1", "4/5", "6/5")
SHIFTS = ("1/10", "-1/10")
KAPPA_BANDS = ((0.0, 0.05, 0.1), (0.3, 0.25, 0.35), (0.6, 0.55, 0.5))
ALPHAS = (0.05, 0.1, 0.01)
XI_BANDS = ((0.5, 0.75), (1.0, 1.25), (2.0, 1.5))
FOLD_PATH_SEEDS = (11, 12, 13)

FOLD_PATHS = 200
FOLD_LENGTH = 50


def rational_sqrt_horizon(p: str, q: str, lo: int = 30, hi: int = 50) -> int:
    """Smallest n in [lo, hi] with sqrt(n * sigma^2) rational.

    At such a horizon the dynamic program folds w into u, which halves its
    states per second; every coin on the menu must have one.
    """
    pf, qf = Fraction(p), Fraction(q)
    var = pf + qf - (pf - qf) ** 2  # sigma^2 of the three-outcome coin
    for n in range(lo, hi + 1):
        s = n * var
        if (isqrt(s.numerator) ** 2 == s.numerator
                and isqrt(s.denominator) ** 2 == s.denominator):
            return n
    raise ValueError(f"coin ({p}, {q}) has no rational-sqrt horizon in [{lo}, {hi}]")


def fold_paths(path_seed: int) -> list[list[int]]:
    """FOLD_PATHS observation paths of FOLD_LENGTH coin outcomes."""
    rng = random.Random(path_seed)
    return [[rng.choice((1, -1, 0)) for _ in range(FOLD_LENGTH)] for _ in range(FOLD_PATHS)]


def generate(seed: int) -> dict:
    """The inputs of one seed, as a JSON-serializable dict."""
    if seed == DEFAULT_SEED:
        pick = lambda menu: menu[0]  # noqa: E731
        mc_seed = 20260808
    else:
        rng = random.Random(seed)
        pick = rng.choice
        mc_seed = rng.randrange(1, 2**31)
    p, q = pick(COINS)
    inputs = {
        "seed": seed,
        "coin": [p, q],
        "half_width": pick(HALF_WIDTHS),
        "shift": pick(SHIFTS),
        "pde_kappas": [pick(band) for band in KAPPA_BANDS],
        "hyptest_kappas": [pick(band) for band in KAPPA_BANDS],
        "alphas": [pick(ALPHAS), pick(ALPHAS)],
        "xis": [pick(band) for band in XI_BANDS],
        "fold_path_seed": pick(FOLD_PATH_SEEDS),
        "mc_seed": mc_seed,
    }
    inputs["rational_horizon"] = rational_sqrt_horizon(p, q)
    return inputs


def reference_scenarios():
    """Every (coin, half-width, shift, fold-path seed) a seed can produce."""
    for p, q in COINS:
        for b in HALF_WIDTHS:
            for shift in SHIFTS:
                for path_seed in FOLD_PATH_SEEDS:
                    yield {
                        "seed": None, "coin": [p, q], "half_width": b, "shift": shift,
                        "fold_path_seed": path_seed,
                        "rational_horizon": rational_sqrt_horizon(p, q),
                    }
