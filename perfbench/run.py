"""The repository benchmark: one command, two workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload search_scale --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload untraced and then traced, each for half of
``--seconds``, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is the result object; the line before it
records the environment.  The exit code is non-zero when any output check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("search_scale", "route_mix")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _launch_s(module: str) -> float:
    """Wall time of a fresh interpreter that imports what a run of
    ``module`` imports: the launch part of set-up, measured apart from this
    process so that it can be repeated."""
    code = f"import sys; sys.path[:0] = [{HERE!r}, {SRC!r}]; import layers, measure, {module}"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def _terminated(signum, frame):
    # Unwind through the finally blocks that stop spawned processes.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import layers
    import measure

    if args.workload == "route_mix":
        from routing import run_route as run
    else:
        from training import run_scale as run

    module = "routing" if args.workload == "route_mix" else "training"
    launch_times = [] if args.trace else [_launch_s(module) for _ in range(measure.N_SETUPS)]
    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        out = run(args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    metrics = dict(out["metrics"])
    if args.trace:
        metrics["bench.failed_ratio"] = (out["failed"] / out["attempted"], "ratio")
        metrics["process.blas_threads"] = (measure.blas_threads() or 0, "count")
        metrics = layers.complete(metrics)
    else:
        metrics["setup_s"] = (
            statistics.median(launch_times) + statistics.median(out["setup_times"]), "s"
        )
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    env = measure.environment(ROOT, args.workload, args.seed, bool(args.trace))
    env["setup_times_s"] = out["setup_times"]
    env["launch_times_s"] = launch_times
    print(json.dumps({"environment": env}))
    correct = not out["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
