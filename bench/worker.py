"""One workload process: set up, signal ready, run timed passes, report.

Started by ``run.py`` from the root of a source checkout.  The process
imports ``ambiclt`` from ``src/``, generates the seed's inputs and builds the
workload's ops, then writes ``READY`` on stdout; the parent's clock from
spawning this process to that line is one ``setup_s`` sample.  With
``--setup-only`` it exits there.

Otherwise it runs passes over the op list until ``--seconds`` would be
exceeded by another pass, and writes one JSON line with the pass timings,
failures, peak resident set and, with ``--trace 1``, the per-layer metrics.
Traced runs alternate untraced and traced passes, so the traced pass can be
compared with an untraced one of the same run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for CLI outputs and spans")
    return parser.parse_args(argv)


def run_pass(ops, tracer, pass_index, probes):
    """Run every op once; time only ``op.run``; check each result after.

    Machine-speed probes go to ``probes`` between ops, never inside one.
    """
    op_times, op_starts, failures = [], [], []
    probes.take(force=True)
    if tracer is not None:
        tracer.pass_index = pass_index
        tracer.install()
    try:
        for i, op in enumerate(ops):
            probes.take()
            if tracer is not None:
                tracer.op_id, tracer.phase = i, "op"
            error = None
            start = time.perf_counter()
            op_starts.append(start)
            try:
                value = op.run()
            except Exception as exc:  # an op that raises counts as failed
                error = f"raised {type(exc).__name__}: {exc}"
            op_times.append(time.perf_counter() - start)
            if error is None:
                if tracer is not None:
                    tracer.phase = "check"
                try:
                    error = op.check(value)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append({"op": i, "name": op.name, "layer": op.layer, "error": error})
    finally:
        if tracer is not None:
            tracer.uninstall()
    probes.take(force=True)
    return op_times, op_starts, failures


def per_layer_metrics(passes, metric_names):
    """The traced run's per-layer metrics, from spans and op failures."""
    from spans import median

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    summaries = [p["summary"] for p in traced]

    def busy(group):
        """Median busy seconds of a group, or of all groups under a layer."""
        return median([sum(v for g, v in s["busy"].items()
                           if g == group or g.startswith(group + "."))
                       for s in summaries])

    metrics = {}
    for name in metric_names:
        group, _, key = name.rpartition(".")
        if key == "busy_s":
            metrics[name] = busy(group)
        elif key == "failed":
            metrics[name] = sum(1 for p in passes for f in p["failures"] if f["layer"] == group)
        elif key.endswith("_per_s"):
            work = summaries[0]["counts"].get(f"{group}.{key[:-len('_per_s')]}", 0)
            metrics[name] = work / busy(group) if busy(group) > 0 else 0.0
        elif name == "bench.trace_overhead_s":
            # scaled times: the two passes can run at different machine speeds
            metrics[name] = (median([p["scaled_wall"] for p in traced])
                             - median([p["scaled_wall"] for p in untraced]))
        else:
            metrics[name] = summaries[0]["counts"].get(name, 0)
    counts_repeat = all(s["counts"] == summaries[0]["counts"] for s in summaries)
    return metrics, counts_repeat


def main(argv=None) -> int:
    args = parse_args(argv)
    proto = sys.stdout
    sys.path.insert(0, BENCH_DIR)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    import numpy  # noqa: F401  (set-up cost is part of setup_s)
    import scipy  # noqa: F401
    import ambiclt
    from inputs import generate
    from probe import Probes, reference_seconds, scaled_seconds
    from workloads import PROBE_PIECES, WORKLOADS, Context

    with open(os.path.join(BENCH_DIR, "references.json"), encoding="utf-8") as handle:
        refs = json.load(handle)
    ctx = Context(generate(args.seed), refs, args.out)
    ops = WORKLOADS[args.workload](ctx)
    proto.write("READY\n")
    proto.flush()
    if args.setup_only:
        return 0

    sys.stdout = sys.stderr  # keep library and CLI output off the protocol stream
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(ambiclt)
    passes = []
    probes = Probes(PROBE_PIECES[args.workload])
    reference_s = reference_seconds(probes.pieces)
    start = time.perf_counter()
    longest = 0.0
    min_passes = 2 if args.trace else 1
    while True:
        pass_start = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        op_times, op_starts, failures = run_pass(ops, tracer if traced else None,
                                                 len(passes), probes)
        record = {"traced": traced, "wall": sum(op_times), "op_times": op_times,
                  "op_starts": op_starts, "failures": failures,
                  "scaled_wall": scaled_seconds(op_times, op_starts, probes.samples,
                                                reference_s)}
        if traced:
            record["summary"] = tracer.pass_summary(len(passes))
        passes.append(record)
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        if len(passes) >= min_passes and now - start + longest > args.seconds:
            break
    measured = time.perf_counter() - start

    result = {
        "ops": [{"name": op.name, "layer": op.layer} for op in ops],
        "inputs": ctx.inputs,
        "passes": [{k: v for k, v in p.items() if k != "summary"} for p in passes],
        "measured_s": measured,
        "probes": probes.samples,
        "probe_pieces": probes.pieces,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        from spans import PER_LAYER
        metrics, repeat = per_layer_metrics(passes, [m[0] for m in PER_LAYER])
        result["per_layer"] = metrics
        result["counts_repeat_across_passes"] = repeat
        result["trace_summaries"] = [p["summary"] for p in passes if p["traced"]]
        spans_path = os.path.join(args.out, "spans.csv")
        tracer.write(spans_path)
        result["spans_file"] = spans_path
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
