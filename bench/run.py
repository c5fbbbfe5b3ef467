"""ghzfreq benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 25 --trace 0

Run from a source checkout; nothing needs to be installed. The workload runs
in a fresh child process (bench/worker.py) with PYTHONPATH=src, one BLAS
thread and `--jobs` left at 1. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (setup_s, rows_per_s,
call_p50_ms, call_p90_ms, peak_rss_mb). With `--trace 1` a fixed number of
rounds (workloads.TRACE_ROUNDS) runs untraced and then traced, each in its
own process, and the metrics are the per-layer ones plus the tracing
overhead. The line before
the last holds the machine facts and the run's details.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_LAUNCHES = 11
CHILD_TIMEOUT_S = 150


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _setup_seconds(env: dict[str, str]) -> float:
    """Median time from launching a fresh interpreter until ghzfreq.cli is imported.

    perf_counter is the system-wide monotonic clock on Linux, so the child's
    reading after the import and the parent's before the launch compare
    directly. One unmeasured launch first writes bytecode caches.
    """
    code = "import time, ghzfreq.cli; print(time.perf_counter())"
    values = []
    for i in range(SETUP_LAUNCHES + 1):
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        if i:
            values.append(float(done.stdout) - start)
    return statistics.median(values)


def _worker(env: dict[str, str], args: argparse.Namespace, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    done = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep-grid", "large-n", "oracle", "points"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ghzfreq" / "cli.py").is_file():
        print(f"error: no ghzfreq source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _child_env()
    try:
        if args.trace:
            from tracing import PER_LAYER_METRICS
            from workloads import TRACE_ROUNDS

            rounds = str(TRACE_ROUNDS[args.workload])
            untraced = _worker(env, args, "--rounds", rounds)
            run = _worker(env, args, "--rounds", rounds, "--trace")

            values = dict(run["layers"])
            values["trace.untraced_wall_ms"] = 1e3 * untraced["wall_s"]
            values["trace.overhead_ms"] = 1e3 * (run["wall_s"] - untraced["wall_s"])
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in PER_LAYER_METRICS}
            if run["digest"] != untraced["digest"]:
                run["problems"].append("tracing changed the outputs")
            run["problems"] += untraced["problems"]
        else:
            setup_s = _setup_seconds(env)
            run = _worker(env, args)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "rows_per_s": {"value": run["rows_per_s"], "unit": "records/s"},
                "call_p50_ms": {"value": run["call_p50_ms"], "unit": "ms"},
                "call_p90_ms": {"value": run["call_p90_ms"], "unit": "ms"},
                "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            }
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc}\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in run["failures"] + run["problems"]:
        print(line, file=sys.stderr)
    details = {key: run[key] for key in ("machine", "rounds", "records", "wall_s", "failures")}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **details,
                      "problems": len(run["problems"])}))
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
