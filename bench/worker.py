"""Run one workload in this fresh process and print its figures as one JSON line.

Started by run.py with PYTHONPATH pointing at the source tree and BLAS
threads pinned. Every invocation calls `ghzfreq.cli.run` in-process with
stdout and stderr captured. A run repeats the workload's round until
`--seconds` have passed (or exactly `--rounds` rounds), checks that every
round printed the same bytes, and checks the first round's outputs against
the reference. With `--trace` the package's functions are wrapped first
and the per-layer figures are added.

    PYTHONPATH=src python3 bench/worker.py --workload points --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

from workloads import WORKLOADS, round_ops, warmup_ops

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _invoke(cli, argv: tuple[str, ...]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = cli.run(list(argv))
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed


def _machine() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0, help="exact round count; 0 = by time")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import ghzfreq.cli as cli

    ops = round_ops(args.workload, args.seed)
    for op in warmup_ops():
        _invoke(cli, op.argv)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    times: list[list[float]] = []  # per round, per invocation
    digests: list[str] = []
    first: list[tuple[int, str]] = []
    start = perf_counter()
    while True:
        digest = hashlib.blake2b(digest_size=16)
        times.append([])
        for op in ops:
            code, out, elapsed = _invoke(cli, op.argv)
            times[-1].append(elapsed)
            digest.update(f"{code}\0{out}\0".encode())
            if not digests:
                first.append((code, out))
        digests.append(digest.hexdigest())
        done = len(digests) >= args.rounds if args.rounds else perf_counter() - start >= args.seconds
        if done:
            break
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import check_op

    problems: list[str] = []
    failures: list[str] = []
    records = 0
    for op, (code, out) in zip(ops, first):
        if code not in (0, 4):  # 4 = verify ran and reported failed checks
            failures.append(f"exit {code}{' (deep decay)' if op.deep_decay else ''}: "
                            + " ".join(op.argv))
            continue
        count, found = check_op(op.argv, code, out)
        records += count
        problems += [f"{' '.join(op.argv)}: {msg}" for msg in found]
    if len(set(digests)) != 1:
        problems.append(f"outputs differ between rounds ({len(set(digests))} variants)")

    # Each invocation's time is the mean of its repeats, one per round. Load
    # from other tenants of the machine comes in spells that make repeat times
    # bimodal; the mean moves with the share of slow time, while a median or
    # minimum of a few repeats jumps between the two modes.
    per_call = [statistics.fmean(column) for column in zip(*times)]
    rounds = len(digests)
    result = {
        "machine": _machine(),
        "rounds": rounds,
        "attempted": rounds * len(ops),
        "failed": rounds * len(failures),
        "records": rounds * records,
        "wall_s": wall,
        "rows_per_s": records / sum(per_call),
        "call_p50_ms": 1e3 * statistics.median(per_call),
        "call_p90_ms": 1e3 * statistics.quantiles(per_call, n=10)[-1],
        "peak_rss_mb": peak_rss_mb,
        "digest": digests[0],
        "failures": failures,
        "problems": problems,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
        problems += tracer.accounting_problems(wall)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
