"""Compute the stored reference values the benchmark's checks compare with.

Run from the root of a source checkout:

    python3 bench/make_references.py

For every input scenario a seed can produce (``inputs.reference_scenarios``)
it builds each workload's ops and evaluates every distinct ``ref_key`` once,
writing ``bench/references.json``.  The stored values are those of the code
this is run on; they were made from the code the benchmark was first
committed with, and should be remade only when a value is meant to change.
Takes several minutes.
"""

from __future__ import annotations

import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, BENCH_DIR)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from inputs import DEFAULT_SEED, generate, reference_scenarios
    from workloads import WORKLOADS, Context

    pending = {}
    for scenario in reference_scenarios():
        inputs = dict(generate(DEFAULT_SEED), **scenario)
        ctx = Context(inputs, {}, BENCH_DIR)
        for build in WORKLOADS.values():
            for op in build(ctx):
                if op.ref_key is not None and op.ref_key not in pending:
                    pending[op.ref_key] = op.make_ref
    refs = {}
    for i, (key, make_ref) in enumerate(sorted(pending.items())):
        start = time.perf_counter()
        refs[key] = make_ref()
        print(f"[{i + 1}/{len(pending)}] {key} ({time.perf_counter() - start:.1f} s)",
              file=sys.stderr)
    with open(os.path.join(BENCH_DIR, "references.json"), "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
