"""ambiclt benchmark: run one workload for a fixed time and report metrics.

Usage, from the root of a source checkout (the directory holding ``src/``):

    python3 bench/run.py --workload dp_float_large --seed 0 --seconds 38 --trace 0

``--workload`` is one of ``dp_float_large``, ``dp_exact_small`` and
``limits_mc`` (``WORKLOADS.md`` says what each one is for).  ``--seed`` picks
the inputs (``inputs.py``).  With ``--trace 0`` the last line of stdout is a
JSON object whose metrics are the end-to-end ones: ``wall_s`` (median pass),
``setup_s`` (median of several fresh processes), ``peak_rss_mb`` and
``ok_ratio``.  With ``--trace 1`` they are the per-layer metrics of
``spans.PER_LAYER``.  The lines before it print the same numbers with units,
plus ``fail_ratio``; the full run record (machine, versions, inputs, every
pass and failure) goes to ``bench/records/<workload>-seed<seed>-trace<t>/``.

Every process this starts is waited for; a worker that overruns is killed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time


BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dp_float_large", "dp_exact_small", "limits_mc")
# fresh processes timed from spawn to ready, besides the measuring one
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 30.0
# the whole run must end well inside the 180 s a run may take
RUN_DEADLINE_S = 170.0

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def machine_info(root: str) -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        info["cpu_model"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu_model"] = platform.processor()
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as lv, \
                    open(os.path.join(index, "type")) as tp, \
                    open(os.path.join(index, "size")) as sz:
                level, kind, size = lv.read().strip(), tp.read().strip(), sz.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    info["caches_per_core_or_shared"] = caches
    info["ram_gib"] = round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2)
    try:
        import numpy
        import scipy
        info["numpy"], info["scipy"] = numpy.__version__, scipy.__version__
    except ImportError:
        pass
    info["commit"] = _commit(root)
    info["source_sha256"] = _source_digest(root)
    return info


def _commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _source_digest(root: str) -> str:
    """Identifies the measured code where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "ambiclt", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _wait_ready(proc: subprocess.Popen, timeout: float) -> float | None:
    """Seconds until the worker printed READY, or None if it did not."""
    deadline = time.perf_counter() + timeout
    line = b""
    while not line.endswith(b"\n"):
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            return None
        chunk = os.read(proc.stdout.fileno(), 1)
        if not chunk:
            return None
        line += chunk
    return time.perf_counter() if line == b"READY\n" else None


def spawn(args, out_dir: str, env: dict, setup_only: bool, log) -> subprocess.Popen:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, env=env)


def setup_sample(args, out_dir, env, log) -> float:
    """Seconds from spawning a worker to its READY line."""
    start = time.perf_counter()
    proc = spawn(args, out_dir, env, True, log)
    try:
        ready = _wait_ready(proc, SETUP_TIMEOUT_S)
        proc.wait(timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        ready = None
    finally:
        _stop(proc)
    if ready is None or proc.returncode != 0:
        raise RuntimeError("set-up process failed; see worker.log")
    return ready - start


def measure(args, out_dir, env, log, deadline) -> tuple[float, dict]:
    start = time.perf_counter()
    proc = spawn(args, out_dir, env, False, log)
    try:
        ready = _wait_ready(proc, SETUP_TIMEOUT_S)
        if ready is None:
            raise RuntimeError("worker did not get ready; see worker.log")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker overran the run deadline") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}; see worker.log")
    return ready - start, json.loads(out.decode().strip().splitlines()[-1])


def _tail(samples) -> str:
    """The highest percentile with at least 10 samples beyond it."""
    k = len(samples) - 10
    if k < 1:
        return "too few for a percentile with 10 samples beyond it"
    return f"p{100 * k // len(samples)} = {sorted(samples)[k - 1]:.6g} s"


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ambiclt", "__init__.py")):
        print("error: run from the root of an ambiclt checkout (no src/ambiclt here)",
              file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 120:
        print("error: --seconds must be within 1..120", file=sys.stderr)
        return 2
    out_dir = os.path.join(BENCH_DIR, "records",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = child_env()
    load_start = os.getloadavg()
    deadline = started + RUN_DEADLINE_S

    try:
        with open(os.path.join(out_dir, "worker.log"), "wb") as log:
            setups = [setup_sample(args, out_dir, env, log) for _ in range(SETUP_SAMPLES)]
            first_setup, result = measure(args, out_dir, env, log, deadline)
    except RuntimeError as exc:
        print(f"error: {exc} ({out_dir})", file=sys.stderr)
        return 1
    setups.append(first_setup)

    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    attempted = len(result["ops"]) * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = len(failures)
    if args.trace:
        from spans import PER_LAYER
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = result["per_layer"]
    else:
        units = dict(END_TO_END)
        values = {
            "wall_s": statistics.median(p["scaled_wall"] for p in untraced),
            # import-bound set-up moved far less with the machine's speed than
            # the passes did, so it is reported unscaled (see WORKLOADS.md)
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": 1.0 - failed / attempted,
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(root),
        "load_average_start": load_start, "load_average_end": os.getloadavg(),
        "inputs": result["inputs"],
        "probe_pieces": result["probe_pieces"],
        "setup_samples_s": setups,
        "pass_raw_walls_s": [p["wall"] for p in passes],
        "pass_walls_s": [p["scaled_wall"] for p in passes],
        "probes": result["probes"],
        "pass_traced": [p["traced"] for p in passes],
        "ops": [dict(op, times_s=[p["op_times"][i] for p in passes],
                     starts_s=[p["op_starts"][i] for p in passes])
                for i, op in enumerate(result["ops"])],
        "failures": failures, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        **{k: result[k] for k in ("counts_repeat_across_passes", "trace_summaries",
                                  "spans_file", "measured_s") if k in result},
    }
    with open(os.path.join(out_dir, "record.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes "
          f"of {len(result['ops'])} ops in {result['measured_s']:.1f} s")
    print(f"  inputs: {json.dumps(result['inputs'], sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  {'wall_s unscaled':34s} {statistics.median(p['wall'] for p in untraced):>14.6g} s "
              "(wall_s is scaled by machine speed, see probe.py)")
        print(f"  {'wall_s samples':34s} {len(untraced):>14d} passes; "
              f"{_tail([p['scaled_wall'] for p in untraced])}")
    print(f"  {'fail_ratio':34s} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} ops failed)")
    for failure in failures[:10]:
        print(f"  FAILED {failure['name']}: {failure['error']}")
    print(f"  record: {os.path.relpath(out_dir, root)}/record.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
