"""Write a seeded corpus of `ghzfreq` command-line runs as JSONL.

Each line is one in-process `ghzfreq.cli.run(argv)` call: its argv, exit
code, stdout and stderr. The argv of run i depends only on (seed, i), so
every slice of a corpus is reproducible on its own. The runs cover

  * `sweep` over the three models, gamma log-uniform from 1e-300 to 1e308
    (its edges included), probe ranges starting anywhere up to 10**6,
    c1 in [0, 1], every subset of the strategies, CSV and JSON;
  * random `qfi` points: model, strategy, ancilla count, gamma, t (mostly
    a decay N*gamma*t in [1e-4, 1e3]), N up to 10**12, c1, --c2-phase and
    --omega, a few with --oracle at N up to 8 (10 qubits with two
    ancillas). --omega is log-uniform in +-[1e300, 1.7e308] one time in 20,
    and one time in 4 with --oracle, the one run whose output depends on
    omega, so that its rotation angle omega*t can leave the doubles;
  * random `table1` ranges: model, gamma, a first N and t drawn as for
    `qfi` (the decay of the GHZ strategies), a range of up to 5 probe
    counts, CSV and JSON.

One time in 20 a `qfi` (without --oracle), `table1` or `sweep` run takes
its first N log-uniform in [10**150, 10**400], where N*N and then N itself
leave the doubles; and one time in 20 a `qfi` or `table1` run takes
gamma = 0. Where gamma = 0, or the rate gamma*N is not a double, t is drawn
as any time, since there is no rate to divide by. These two draws come
from a second generator, so every other argv is the one the main draws
alone give.

The package is imported from the path, so a check of two source trees is
two runs and a comparison:

    PYTHONPATH=old/src python tools/cli_corpus.py --out old.jsonl
    PYTHONPATH=new/src python tools/cli_corpus.py --out new.jsonl
    python tools/cli_corpus.py --compare old.jsonl new.jsonl

`--compare` exits 1 when any run differs and 0 when every run is
identical, so it alone decides whether two trees print the same bytes. It
summarizes two corpora of the same argvs: how many runs are identical,
each exit-code change with its argv, the stderr-only changes grouped by
message (numbers read as #; where only numbers moved, with one run's argv
and its stderr on both sides as written), and the largest relative and
absolute move of each numeric column per command and strategy (per model
for `table1`, whose rows have no strategy), over the runs that exit 0 on
both sides.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import sys
import warnings

MODELS = ("adc", "dpc", "pdc")
STRATEGIES = ("uncorrelated", "ghz-free", "ghz-ancilla")
GAMMA_EDGES = (1e-300, 5.6e-307, 1e-10, 1.0, 1e300, 1e305, 1e307, 1e308, 1.7e308)
RANGE_LENGTHS = (1, 2, 5, 17, 30, 64)
TABLE1_LENGTHS = (1, 2, 5)
C1_CHOICES = (0.35, 0.6, 1.0 / math.sqrt(2.0), 0.9)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def _c1(rng: random.Random) -> float:
    """Mostly a few fixed amplitudes; 0 and 1 (no phase coherence) one time in 20."""
    draw = rng.random()
    if draw < 0.05:
        return rng.choice((0.0, 1.0))
    return rng.choice(C1_CHOICES) if draw < 0.7 else rng.random()


def _huge_n(edge: random.Random, n: int) -> int:
    """n, or one time in 20 an integer log-uniform in [10**150, 10**400]."""
    if edge.random() >= 0.05:
        return n
    exponent = edge.uniform(150.0, 400.0)
    return int(10.0 ** (exponent % 1.0 + 15.0)) * 10 ** (int(exponent) - 15)


def _zero_rate(edge: random.Random, gamma: float) -> float:
    """gamma, or one time in 20 the rate 0."""
    return 0.0 if edge.random() < 0.05 else gamma


def _sweep_argv(rng: random.Random, edge: random.Random) -> list[str]:
    gamma = rng.choice(GAMMA_EDGES) if rng.random() < 0.2 else _log_uniform(rng, -300, 308.2)
    first = _huge_n(edge, max(1, int(_log_uniform(rng, 0, 6))))
    last = first + rng.choice(RANGE_LENGTHS) - 1
    chosen = [s for s in STRATEGIES if rng.random() < 0.6] or [rng.choice(STRATEGIES)]
    return [
        "sweep", "--model", rng.choice(MODELS), "--gamma", repr(gamma),
        "--n", f"{first}:{last}", "--strategy", ",".join(chosen),
        "--c1", repr(_c1(rng)), "--format", rng.choice(("csv", "json")),
    ]


def _n(rng: random.Random) -> int:
    return max(1, int(_log_uniform(rng, 0, 12)))


def _time(rng: random.Random, gamma: float, decays: int) -> float:
    """Mostly a decay gamma*decays*t between 1e-4 and 1e3, else any time at
    all; always any time where the rate gamma*decays is 0 (gamma = 0) or
    not a double, since there is no rate to divide by."""
    rate = gamma * decays if decays <= sys.float_info.max else math.inf
    if rng.random() < 0.7 and 0.0 < rate < math.inf:
        return _log_uniform(rng, -4, 3) / rate
    return _log_uniform(rng, -300, 300)


def _omega(rng: random.Random, huge: float) -> float:
    """|omega| up to 1e3, or log-uniform in +-[1e300, 1.7e308] with probability `huge`."""
    if rng.random() < huge:
        return rng.choice((-1.0, 1.0)) * _log_uniform(rng, 300, math.log10(1.7e308))
    return rng.uniform(-1e3, 1e3)


def _qfi_argv(rng: random.Random, edge: random.Random) -> list[str]:
    strategy = rng.choice(STRATEGIES)
    oracle = rng.random() < 0.05
    n = rng.randint(1, 8) if oracle else _huge_n(edge, _n(rng))  # up to 10 dense qubits
    gamma = _zero_rate(edge, _log_uniform(rng, -300, 300))
    # the decay is N*gamma*t for a GHZ probe, else gamma*t
    t = _time(rng, gamma, 1 if strategy == "uncorrelated" else n)
    omega = _omega(rng, 0.25 if oracle else 0.05)
    argv = [
        "qfi", "--model", rng.choice(MODELS), "--gamma", repr(gamma),
        "--t", repr(t), "--n", str(n), "--strategy", strategy,
        "--c1", repr(_c1(rng)), "--c2-phase", repr(rng.uniform(-10.0, 10.0)),
        "--omega", repr(omega), "--format", rng.choice(("csv", "json")),
    ]
    if strategy == "ghz-ancilla":
        argv += ["--n-ancillas", str(rng.randint(1, 2))]
    return argv + ["--oracle"] if oracle else argv


def _table1_argv(rng: random.Random, edge: random.Random) -> list[str]:
    n = _huge_n(edge, _n(rng))
    gamma = _zero_rate(edge, _log_uniform(rng, -300, 300))
    t = _time(rng, gamma, n)
    return [
        "table1", "--model", rng.choice(MODELS), "--gamma", repr(gamma), "--t", repr(t),
        "--n", f"{n}:{n + rng.choice(TABLE1_LENGTHS) - 1}",
        "--format", rng.choice(("csv", "json")),
    ]


def corpus_argv(seed: int, index: int) -> list[str]:
    """The argv of run `index` of the corpus with `seed`: a sweep 3 times in 5,
    else a `qfi` or a `table1` run, as often as each other. `edge` draws the
    huge N and the zero rate, apart from the main draws."""
    rng = random.Random(f"{seed}:{index}")
    edge = random.Random(f"{seed}:{index}:edge")
    draw = rng.random()
    if draw < 0.6:
        return _sweep_argv(rng, edge)
    return _qfi_argv(rng, edge) if draw < 0.8 else _table1_argv(rng, edge)


def run_one(argv: list[str]) -> dict:
    """Run `ghzfreq.cli.run(argv)` in-process; its exit code, stdout and stderr."""
    from ghzfreq.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # every warning shows, whatever ran before
            code = run(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_corpus(seed: int, start: int, runs: int, stream) -> None:
    for index in range(start, start + runs):
        stream.write(json.dumps(run_one(corpus_argv(seed, index)), sort_keys=True) + "\n")


def _records(stdout: str) -> list[dict]:
    """The rows a run printed, as CSV or JSON."""
    if stdout.startswith("["):
        return json.loads(stdout)
    return list(csv.DictReader(io.StringIO(stdout)))


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _message(stderr: str) -> str:
    """stderr with its numbers read as #, so that runs group by message."""
    return re.sub(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|\binf\b|\bnan\b", "#",
                  stderr.strip())


def compare(old: list[dict], new: list[dict]) -> dict:
    """A summary of two corpora whose runs share their argvs, run by run.

    `identical` counts runs equal in exit code, stdout and stderr;
    `exit_changes` lists (argv, old exit, new exit); `stderr_changes` counts
    each (old, new) stderr pair, numbers read as #, of runs whose exit code
    and stdout are equal; `stderr_examples` maps each such pair whose two
    sides read alike to the (argv, old stderr, new stderr) of its first run,
    which shows the numbers that moved; `moves` maps (command, column,
    strategy) to the largest relative and absolute move of a numeric cell
    and the argv of each, over the runs that exit 0 on both sides, with the
    model in place of the strategy for rows that have none;
    `layout_changes` lists the argvs of those runs whose rows or columns
    differ.
    """
    summary = {"runs": len(old), "identical": 0, "exit_changes": [], "stderr_changes": {},
               "stderr_examples": {}, "moves": {}, "layout_changes": []}
    if len(old) != len(new):
        raise ValueError(f"the corpora hold {len(old)} and {len(new)} runs")
    for a, b in zip(old, new):
        if a["argv"] != b["argv"]:
            raise ValueError(f"the corpora differ in argv: {a['argv']} against {b['argv']}")
        argv = " ".join(a["argv"])
        if a == b:
            summary["identical"] += 1
        elif a["exit"] != b["exit"]:
            summary["exit_changes"].append((argv, a["exit"], b["exit"]))
        elif a["stdout"] == b["stdout"]:
            key = (_message(a["stderr"]), _message(b["stderr"]))
            summary["stderr_changes"][key] = summary["stderr_changes"].get(key, 0) + 1
            if key[0] == key[1]:
                summary["stderr_examples"].setdefault(
                    key, (argv, a["stderr"].strip(), b["stderr"].strip()))
        if a["exit"] != 0 or b["exit"] != 0 or a["stdout"] == b["stdout"]:
            continue
        rows_a, rows_b = _records(a["stdout"]), _records(b["stdout"])
        if len(rows_a) != len(rows_b) or any(r.keys() != s.keys() for r, s in zip(rows_a, rows_b)):
            summary["layout_changes"].append(argv)
            continue
        for row_a, row_b in zip(rows_a, rows_b):
            for column, cell in row_a.items():
                x, y = _number(cell), _number(row_b[column])
                if x is None or y is None or x == y:
                    continue
                key = (a["argv"][0], column, str(row_a.get("strategy", row_a.get("model"))))
                rel = abs(y - x) / abs(x) if x else math.inf
                top = summary["moves"].setdefault(key, [0.0, "", 0.0, ""])
                if rel > top[0]:
                    top[0:2] = rel, argv
                if abs(y - x) > top[2]:
                    top[2:4] = abs(y - x), argv
    return summary


def _report(summary: dict, stream) -> None:
    write = stream.write
    write(f"{summary['identical']} of {summary['runs']} runs identical\n")
    write(f"\nexit-code changes: {len(summary['exit_changes'])}\n")
    for argv, was, now in summary["exit_changes"]:
        write(f"  {was} -> {now}: {argv}\n")
    changes = summary["stderr_changes"]
    write(f"\nstderr-only changes: {sum(changes.values())}\n")
    for (was, now), count in sorted(changes.items(), key=lambda item: -item[1]):
        write(f"  {count} x\n    old: {was}\n    new: {now}\n")
        if was == now:
            argv, old, new = summary["stderr_examples"][was, now]
            write(f"    e.g. {argv}\n      old: {old}\n      new: {new}\n")
    write(f"\nlayout changes on runs that exit 0 on both sides: {len(summary['layout_changes'])}\n")
    for argv in summary["layout_changes"]:
        write(f"  {argv}\n")
    write("\nlargest moves on runs that exit 0 on both sides:\n")
    for (command, column, strategy), (rel, rel_argv, dev, dev_argv) in sorted(
            summary["moves"].items()):
        write(f"  {command} {column} {strategy}: relative {rel:.3g} ({rel_argv}), "
              f"absolute {dev:.3g} ({dev_argv})\n")


def _load(path: str) -> list[dict]:
    with open(path) as stream:
        return [json.loads(line) for line in stream]


def _to_stdout(write) -> None:
    """Call write(sys.stdout) and flush. A reader that closed the pipe ends the
    output there; the interpreter's flush at exit then goes to os.devnull, so
    the exit code stays the command's own."""
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    """Run the command line; the exit code is 1 when `--compare` finds a run that
    differs, else 0."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--start", type=int, default=0, help="index of the first run")
    parser.add_argument("--runs", type=int, default=4000)
    parser.add_argument("--out", help="write here instead of stdout")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="summarize two corpora instead of writing one")
    ns = parser.parse_args(argv)
    if ns.compare:
        summary = compare(*map(_load, ns.compare))
        _to_stdout(lambda out: _report(summary, out))
        return int(summary["identical"] != summary["runs"])
    if ns.out is None:
        _to_stdout(lambda out: write_corpus(ns.seed, ns.start, ns.runs, out))
        return 0
    with open(ns.out, "w") as stream:
        write_corpus(ns.seed, ns.start, ns.runs, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
