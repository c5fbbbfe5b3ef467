"""Seeded inputs for the four benchmark workloads.

A workload is a list of operations, one round. A run repeats the same round
until its time is up, so every run attempts whole rounds and the share of
failed operations is the same in every run. Each operation is one argument
list for `ghzfreq.cli.run`.

The make-up of a round is fixed; the seed only moves the working points
(rates, amplitudes, times, small offsets of N) whose cost does not depend on
their value. That keeps the work per round, and hence the timings, the same
from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = ["Op", "WORKLOADS", "TRACE_ROUNDS", "DEEP_DECAY_POINTS", "round_ops", "warmup_ops"]

MODELS = ("adc", "dpc", "pdc")

# Deep-decay dpc points. `qfi_ghz_closed`/`qfi_ancilla_closed` raise
# eta_perp to the power 2N in linear space, which underflows to 0 once
# 2*N*gamma*t > ~745, although F itself is representable (log F > -700 at
# every point below). Today each of these exits 3. They do not depend on the
# seed, so every round holds the same number of them.
DEEP_DECAY_POINTS = (
    ("ghz-free", 2000, 1.0, 0.2),
    ("ghz-free", 1000, 2.0, 0.2),
    ("ghz-ancilla", 2000, 1.0, 0.2),
    ("ghz-ancilla", 1500, 1.0, 0.3),
)

# large-n: N per slot, kept below the fixed scan window's limit (~4700 for
# pdc). The saturation check costs O(N^2), so each slot gets a fixed model
# and N moves by at most 1.5% with the seed.
LARGE_N_SLOTS = ((1000, "pdc"), (1500, "adc"), (2000, "dpc"), (2500, "pdc"), (3000, "adc"))


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `deep_decay` marks the known underflow points."""

    argv: tuple[str, ...]
    deep_decay: bool = False


def _num(x: float) -> str:
    return format(x, ".6g")


def _gamma(rng: random.Random) -> float:
    return float(_num(10.0 ** rng.uniform(-1.0, 1.0)))


def _c1(rng: random.Random, lo: float = 0.35, hi: float = 0.93) -> float:
    return float(_num(rng.uniform(lo, hi)))


def _sweep_grid(rng: random.Random) -> list[Op]:
    ops = []
    for model in MODELS:
        ops.append(Op((
            "sweep", "--model", model, "--gamma", _num(_gamma(rng)),
            "--n", "1:30", "--c1", _num(_c1(rng)),
        )))
    return ops


def _large_n(rng: random.Random) -> list[Op]:
    ops = []
    for base, model in LARGE_N_SLOTS:
        jitter = base * 3 // 200
        n = base + rng.randint(-jitter, jitter)
        ops.append(Op((
            "sweep", "--model", model, "--gamma", _num(_gamma(rng)), "--n", str(n),
            "--strategy", "ghz-free,ghz-ancilla", "--c1", _num(_c1(rng)),
        )))
    return ops


def _oracle_qfi(rng: random.Random, model: str, strategy: str, n: int, decay: float) -> Op:
    # The dense route's cost depends on the state, so gamma*t is fixed per
    # slot; the seed moves the rate, the amplitudes, the phase and omega.
    gamma = _gamma(rng)
    omega = rng.uniform(-2.0, 2.0)
    argv = [
        "qfi", "--model", model, "--gamma", _num(gamma), "--n", str(n),
        "--t", _num(decay / gamma), "--strategy", strategy, "--c1", _num(_c1(rng, 0.3, 0.95)),
        "--c2-phase", _num(rng.uniform(0.0, 2.0 * math.pi)),
        "--omega", _num(omega), "--oracle",
    ]
    return Op(tuple(argv))


# (strategy, N, gamma*t) of the dense-oracle calls, once for adc and once for
# dpc. pdc states are sparse, and the eigensolver's time for them swings by 2x
# with the seed-drawn values; `verify` still takes pdc through the dense route.
# With the verify run and one 10-qubit call on top, the median call falls in
# the middle of the six ghz-ancilla N = 6 calls and the 90th percentile just
# below the 10-qubit call.
ORACLE_SLOTS = (
    ("uncorrelated", 10, 0.4),
    ("uncorrelated", 10, 1.2),
    ("uncorrelated", 10, 2.0),
    ("ghz-ancilla", 6, 0.6),
    ("ghz-ancilla", 6, 1.0),
    ("ghz-ancilla", 6, 1.5),
    ("ghz-free", 8, 0.3),
    ("ghz-free", 8, 1.0),
    ("ghz-ancilla", 7, 0.8),
)


def _oracle(rng: random.Random) -> list[Op]:
    ops = [
        Op(("verify", "--nmax", "5", "--seed", str(rng.randrange(2**31)))),
        _oracle_qfi(rng, "dpc", "ghz-free", 10, 0.5),
    ]
    for model in ("adc", "dpc"):
        ops += [_oracle_qfi(rng, model, *slot) for slot in ORACLE_SLOTS]
    return ops


def _points(rng: random.Random) -> list[Op]:
    ops = []
    strategies = ("ghz-free", "ghz-ancilla", "uncorrelated")
    for i in range(60):
        strategy = strategies[i % 3]
        model = rng.choice(MODELS)
        gamma = _gamma(rng)
        n = int(10.0 ** rng.uniform(0.0, math.log10(2000.0)))
        # keep N*gamma*t (gamma*t for uncorrelated) below 20: far from underflow
        decay = 10.0 ** rng.uniform(-2.0, math.log10(20.0))
        t = decay / (gamma * (1 if strategy == "uncorrelated" else n))
        argv = [
            "qfi", "--model", model, "--gamma", _num(gamma), "--n", str(n), "--t", _num(t),
            "--strategy", strategy, "--c1", _num(_c1(rng, 0.2, 0.98)),
            "--c2-phase", _num(rng.uniform(0.0, 2.0 * math.pi)),
            "--omega", _num(rng.uniform(-2.0, 2.0)),
        ]
        if strategy == "ghz-ancilla":
            argv += ["--n-ancillas", str(rng.randint(1, 3))]
        if i % 6 == 5:
            argv += ["--format", "json"]
        ops.append(Op(tuple(argv)))
    for _ in range(20):
        gamma = _gamma(rng)
        lo = rng.randint(1, 200)
        t = 10.0 ** rng.uniform(-2.0, math.log10(20.0)) / (gamma * (lo + 4))
        ops.append(Op((
            "table1", "--model", rng.choice(MODELS), "--gamma", _num(gamma),
            "--n", f"{lo}:{lo + 4}", "--t", _num(t),
        )))
    for _ in range(20):
        gamma = _gamma(rng)
        t = 10.0 ** rng.uniform(-3.0, 1.5) / gamma
        ops.append(Op((
            "channel", "--model", rng.choice(MODELS), "--gamma", _num(gamma), "--t", _num(t),
        )))
    for strategy, n, gamma, t in DEEP_DECAY_POINTS:
        ops.append(Op((
            "qfi", "--model", "dpc", "--gamma", _num(gamma), "--n", str(n), "--t", _num(t),
            "--strategy", strategy,
        ), deep_decay=True))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "sweep-grid": _sweep_grid,
    "large-n": _large_n,
    "oracle": _oracle,
    "points": _points,
}


# rounds of a traced run: one, except where a round lasts well under a second
TRACE_ROUNDS = {"sweep-grid": 1, "large-n": 1, "oracle": 1, "points": 20}


def round_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one round of `workload`; equal seeds, equal lists."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def warmup_ops() -> list[Op]:
    """Cheap calls of every subcommand, run untimed before the first round."""
    return [
        Op(("qfi", "--model", "adc", "--gamma", "1", "--n", "3", "--t", "0.2", "--oracle")),
        Op(("qfi", "--model", "dpc", "--gamma", "1", "--n", "3", "--t", "0.2",
            "--strategy", "ghz-ancilla", "--format", "json")),
        Op(("table1", "--model", "pdc", "--gamma", "1", "--n", "1:3", "--t", "0.2")),
        Op(("channel", "--model", "adc", "--gamma", "1", "--t", "0.2")),
        Op(("sweep", "--model", "dpc", "--gamma", "1", "--n", "1:2")),
    ]
