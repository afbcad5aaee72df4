"""Run the benchmark on every workload and store the numbers as BENCH_<label>.json.

Usage, from anywhere:

    python3 tools/bench_json.py LABEL [--root CHECKOUT]

For each workload of ``bench/run.py`` this runs ``bench/run.py --trace 0``
once (the end-to-end metrics: ``wall_s`` is the median pass, ``setup_s`` the
median fresh process) and ``--trace 1`` ``TRACED_RUNS`` times (the per-layer
metrics), one after the other, in the checkout ``--root`` (default: the one
holding this file), with seed ``SEED`` and the run length ``run_seconds`` of
its ``BENCHMARK.json``.  A per-layer row holds the median of the traced runs
with their min and max; a count must read the same in every traced run, else
the tool stops with an error (one traced run is too noisy to resolve a
per-layer change of under about 40%).  It writes ``BENCH_<label>.json`` to the root of the
checkout holding this file, with the machine the runs were made on, the
end-to-end metrics with their bounds from ``BENCHMARK.json`` and the
per-layer rows.  Comparing two such files, made on one machine, is how a
change's before and after numbers are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300
SEED = 0
TRACED_RUNS = 3


def run_workload(root: str, workload: str, seconds: float, trace: int) -> dict:
    """The last stdout line of one ``bench/run.py`` run, and its run record."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = os.path.join(root, "bench", "records",
                               f"{workload}-seed{SEED}-trace{trace}", "record.json")
    with open(record_path, encoding="utf-8") as handle:
        result["record"] = json.load(handle)
    return result


def rows(specs: list[dict], metrics: dict) -> list[dict]:
    """The benchmark's declared metrics, in its order, with the measured values."""
    return [dict(spec, value=metrics[spec["name"]]["value"]) for spec in specs
            if spec["name"] in metrics]


def layer_rows(workload: str, specs: list[dict], runs: list[dict]) -> list[dict]:
    """The declared per-layer metrics, in order, as the median of the traced
    runs with their min and max.  Raises RuntimeError where a count differs
    between the runs."""
    out = []
    for spec in specs:
        values = [run["metrics"][spec["name"]]["value"] for run in runs
                  if spec["name"] in run["metrics"]]
        if not values:
            continue
        if spec["unit"] == "count" and (len(values) < len(runs) or len(set(values)) > 1):
            raise RuntimeError(f"{workload}: {spec['name']} differs between the "
                               f"traced runs: {values}")
        out.append(dict(spec, value=statistics.median(values),
                        min=min(values), max=max(values)))
    return out


def collect(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    workloads, machine = {}, None
    for workload in (w["name"] for w in spec["workloads"]):
        e2e = run_workload(root, workload, seconds, 0)
        traced = [run_workload(root, workload, seconds, 1) for _ in range(TRACED_RUNS)]
        record = e2e["record"]
        machine = machine or record["machine"]
        workloads[workload] = {
            "inputs": record["inputs"],
            "passes": len(record["pass_walls_s"]),
            "attempted": e2e["attempted"],
            "failed": e2e["failed"],
            "traced_runs": len(traced),
            "traced_failed": sum(run["failed"] for run in traced),
            "end_to_end": rows(spec["end_to_end"], e2e["metrics"]),
            "per_layer": layer_rows(workload, spec["per_layer"], traced),
        }
    return {"command": spec["command"], "seed": SEED, "seconds": seconds,
            "machine": machine, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--root", default=HERE, help="the checkout to measure")
    args = parser.parse_args(argv)
    try:
        result = collect(os.path.abspath(args.root))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(HERE, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"label": args.label, **result}, handle, indent=1)
        handle.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
