"""Write a seeded corpus of `ghzfreq` command-line runs as JSONL.

Each line is one in-process `ghzfreq.cli.run(argv)` call: its argv, exit
code, stdout and stderr. The argv of run i depends only on (seed, i), so
every slice of a corpus is reproducible on its own. The runs cover

  * `sweep` over the three models, gamma log-uniform from 1e-300 to 1e308
    (its edges included), probe ranges starting anywhere up to 10**6,
    c1 in [0, 1], every subset of the strategies, CSV and JSON;
  * random `qfi` points: model, strategy, ancilla count, gamma, t (mostly
    a decay N*gamma*t in [1e-4, 1e3]), N up to 10**12, c1, --c2-phase and
    --omega, a few with --oracle at small N.

The package is imported from the path, so a byte check of two source trees
is two runs and a `cmp`:

    PYTHONPATH=old/src python tools/cli_corpus.py --out old.jsonl
    PYTHONPATH=new/src python tools/cli_corpus.py --out new.jsonl
    cmp old.jsonl new.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys
import warnings

MODELS = ("adc", "dpc", "pdc")
STRATEGIES = ("uncorrelated", "ghz-free", "ghz-ancilla")
GAMMA_EDGES = (1e-300, 5.6e-307, 1e-10, 1.0, 1e300, 1e305, 1e307, 1e308, 1.7e308)
RANGE_LENGTHS = (1, 2, 5, 17, 30, 64)
C1_CHOICES = (0.35, 0.6, 1.0 / math.sqrt(2.0), 0.9)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def _c1(rng: random.Random) -> float:
    """Mostly a few fixed amplitudes; 0 and 1 (no phase coherence) one time in 20."""
    draw = rng.random()
    if draw < 0.05:
        return rng.choice((0.0, 1.0))
    return rng.choice(C1_CHOICES) if draw < 0.7 else rng.random()


def _sweep_argv(rng: random.Random) -> list[str]:
    gamma = rng.choice(GAMMA_EDGES) if rng.random() < 0.2 else _log_uniform(rng, -300, 308.2)
    first = max(1, int(_log_uniform(rng, 0, 6)))
    last = first + rng.choice(RANGE_LENGTHS) - 1
    chosen = [s for s in STRATEGIES if rng.random() < 0.6] or [rng.choice(STRATEGIES)]
    return [
        "sweep", "--model", rng.choice(MODELS), "--gamma", repr(gamma),
        "--n", f"{first}:{last}", "--strategy", ",".join(chosen),
        "--c1", repr(_c1(rng)), "--format", rng.choice(("csv", "json")),
    ]


def _qfi_argv(rng: random.Random) -> list[str]:
    strategy = rng.choice(STRATEGIES)
    oracle = rng.random() < 0.05
    n = rng.randint(1, 5) if oracle else max(1, int(_log_uniform(rng, 0, 12)))
    gamma = _log_uniform(rng, -300, 300)
    # mostly a decay between 1e-4 and 1e3 (N*gamma*t for a GHZ probe, else
    # gamma*t), else any time at all
    decay = gamma * (1 if strategy == "uncorrelated" else n)
    t = _log_uniform(rng, -4, 3) / decay if rng.random() < 0.7 else _log_uniform(rng, -300, 300)
    argv = [
        "qfi", "--model", rng.choice(MODELS), "--gamma", repr(gamma),
        "--t", repr(t), "--n", str(n), "--strategy", strategy,
        "--c1", repr(_c1(rng)), "--c2-phase", repr(rng.uniform(-10.0, 10.0)),
        "--omega", repr(rng.uniform(-1e3, 1e3)), "--format", rng.choice(("csv", "json")),
    ]
    if strategy == "ghz-ancilla":
        argv += ["--n-ancillas", str(rng.randint(1, 2))]
    return argv + ["--oracle"] if oracle else argv


def corpus_argv(seed: int, index: int) -> list[str]:
    """The argv of run `index` of the corpus with `seed`: a sweep, 3 times in 4."""
    rng = random.Random(f"{seed}:{index}")
    return _sweep_argv(rng) if rng.random() < 0.75 else _qfi_argv(rng)


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


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--start", type=int, default=0, help="index of the first run")
    parser.add_argument("--runs", type=int, default=4000)
    parser.add_argument("--out", help="write here instead of stdout")
    ns = parser.parse_args(argv)
    if ns.out is None:
        write_corpus(ns.seed, ns.start, ns.runs, sys.stdout)
        return
    with open(ns.out, "w") as stream:
        write_corpus(ns.seed, ns.start, ns.runs, stream)


if __name__ == "__main__":
    main()
