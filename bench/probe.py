"""Machine-speed probe used to scale the benchmark's pass times.

Virtual machines that share their cores change speed without notice.  On the
2-core Intel Xeon VM this benchmark was tuned on, the same dynamic program
took from 0.66 s to 1.43 s within three minutes, and its CPU time moved with
its wall time: the core itself ran slower, in phases lasting from seconds to
minutes.

A probe times fixed pieces of work that do not touch ``ambiclt``: exact
``Fraction`` arithmetic (the interpreter-bound work of the dynamic
programs), numpy calls on 2001-node arrays (a PDE time step) and on
100k-element arrays (a Monte Carlo path column).  Each workload names the
pieces its own work resembles.  The worker runs the probe at the start and
end of each pass and between operations, at most every
``PROBE_INTERVAL_S``.  ``scaled_seconds`` divides each op's time by the
probe times around it and multiplies by the pieces' ``REFERENCE_S``, so a
reported ``wall_s`` reads as seconds on a machine where the pieces take
``REFERENCE_S`` (about what they took on the tuning VM).  Raw times and
every probe are kept in the run record.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

import numpy as np

PROBE_INTERVAL_S = 0.25
_GRID = np.linspace(-1.0, 1.0, 2001)
_COLUMN = np.linspace(0.0, 1.0, 100_000)


def _fractions() -> None:
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(i % 7 - 3, i % 97 + 1)


def _small_arrays() -> None:
    values = _GRID
    for _ in range(150):
        values = np.hypot(values, 0.1) - 0.1


def _large_arrays() -> None:
    values = _COLUMN
    for _ in range(8):
        values = np.sqrt(values * values + 1.0)


PIECES = {"fractions": _fractions, "small_arrays": _small_arrays,
          "large_arrays": _large_arrays}
REFERENCE_S = {"fractions": 0.010, "small_arrays": 0.0025, "large_arrays": 0.0025}


def reference_seconds(pieces) -> float:
    return sum(REFERENCE_S[piece] for piece in pieces)


def probe(pieces) -> float:
    """Seconds the named pieces of probe work take now."""
    start = time.perf_counter()
    for piece in pieces:
        PIECES[piece]()
    return time.perf_counter() - start


class Probes:
    """(clock, probe seconds) samples taken during a run."""

    def __init__(self, pieces):
        self.pieces = pieces
        self.samples: list[tuple[float, float]] = []

    def take(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= PROBE_INTERVAL_S:
            self.samples.append((now, probe(self.pieces)))


def scaled_seconds(op_times, op_starts, samples, reference_s: float) -> float:
    """Total op time in reference seconds.

    Each op's seconds are divided by the mean of the probes taken just before
    and just after it, and multiplied by ``reference_s``.  A probe is always
    taken at the start and the end of a pass, so every op has both.
    """
    clock = [t for t, _ in samples]
    total = 0.0
    for start, seconds in zip(op_starts, op_times):
        before = samples[bisect.bisect_right(clock, start) - 1][1]
        after = samples[bisect.bisect_left(clock, start + seconds)][1]
        total += seconds * 2.0 / (before + after)
    return reference_s * total
