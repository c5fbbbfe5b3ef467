"""Command-line front end.

Five subcommands: `qfi` evaluates one working point, `table1` tabulates the
closed-form F/t for all strategies over a probe range, `sweep` emits the
optimal-time summary rows, `verify` runs the cross-route check suite, and
`channel` inspects the noise map itself. Their records all go through one
writer, `_render`: CSV (ints, floats to 17 significant digits, true/false)
or JSON, written to stdout or `--output` and byte-identical for identical
inputs. A non-finite float cell is a numerical failure. Exit codes: 0
success, 2 usage error, 3 numerical failure, 4 verification failure.
`qfi` without `--oracle`, `table1` and `channel` evaluate closed forms on
floats, so a process that runs only them never loads numpy.

The parser checks each flag as it reads it: the flag's `type` rejects a
value outside its domain, so a usage error prints argparse's `usage:` line
and an `argument --flag:` message. Each subcommand's handler reads the
parsed namespace directly. The one check left to a handler is `qfi`'s
ancilla count, which depends on the chosen strategy.

Instead of flags, a run can be described by a flat JSON file passed as
`--spec run.json`; its keys are the flag names with underscores.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path
from typing import Callable

from .channel import (
    NoiseModel,
    _check_normal,
    _choi_spectrum,
    _FloatMath,
    a_coefficients,
    adc,
    dpc,
    is_cptp,
    params_at,
    pdc,
)
from .fisher import qfi_closed, qfi_sld_oracle
from .optimize import StrategyKind, sweep, table1
from .state import MAX_DENSE_QUBITS, ProbeSpec, block_probe, check_ancillas
from .verify import run_verification

__all__ = ["run", "main"]

_MODEL_FACTORIES = {"adc": adc, "dpc": dpc, "pdc": pdc}
# the command-line spelling of a strategy is its value with dashes
_STRATEGY_BY_FLAG = {kind.value.replace("_", "-"): kind for kind in StrategyKind}


class UsageError(Exception):
    """Inconsistent inputs or an unusable spec file; maps to exit code 2."""


class NumericalFailure(Exception):
    """A non-finite number reached the output; maps to exit code 3."""


def _checked(kind: type, accept: Callable[[object], bool], need: str) -> Callable[[str], object]:
    """An argparse `type`: `kind(text)`, rejected unless `accept` holds for it."""

    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid float value" names the type
    return parse


_RATE = _checked(float, lambda g: math.isfinite(g) and g >= 0.0, "a finite rate >= 0")
_SWEEP_RATE = _checked(
    float, lambda g: math.isfinite(g) and g > 0.0, "a finite rate > 0 to optimize over time"
)
_TIME = _checked(float, lambda t: math.isfinite(t) and t >= 0.0, "a finite time >= 0")
_POSITIVE_TIME = _checked(float, lambda t: math.isfinite(t) and t > 0.0, "a finite time > 0")
_AMPLITUDE = _checked(float, lambda c: 0.0 <= c <= 1.0, "a real amplitude in [0, 1]")
_NMAX = _checked(int, lambda n: 1 <= n <= 10, "a value in 1..10")
_FINITE = _checked(float, math.isfinite, "a finite value")
_SEED = _checked(int, lambda s: s >= 0, "a seed >= 0")


def _probe_range(text: str) -> tuple[int, int]:
    """`N` or the inclusive range `a:b`, with 1 <= a <= b."""
    parts = text.split(":")
    try:
        if len(parts) > 2:
            raise ValueError
        lo, hi = int(parts[0]), int(parts[-1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad probe range {text!r}; expected N or a:b") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad probe range {text!r}; need 1 <= a <= b")
    return lo, hi


def _probe_count(text: str) -> int:
    lo, hi = _probe_range(text)
    if lo != hi:
        raise argparse.ArgumentTypeError("qfi takes a single probe count, not a range")
    return lo


def _strategy_list(text: str) -> tuple[StrategyKind, ...]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    bad = [s for s in names if s not in _STRATEGY_BY_FLAG]
    if bad or not names:
        raise argparse.ArgumentTypeError(
            f"unknown strategy {bad[0]!r}" if bad else "empty strategy list"
        )
    return tuple(_STRATEGY_BY_FLAG[s] for s in names)


def _argv_from_spec_file(argv: list[str]) -> list[str]:
    """The flags that a `--spec PATH` invocation stands for."""
    if argv.index("--spec") + 1 >= len(argv):
        raise UsageError("--spec needs a file path")
    if len(argv) != 2:
        raise UsageError("--spec replaces all other arguments")
    try:
        payload = json.loads(Path(argv[1]).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read spec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"spec file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError("spec file must hold a flat JSON object")
    command = payload.get("command")
    # the parser rejects an unknown command; one spelled as a flag it would obey
    if not isinstance(command, str) or command.startswith("-"):
        raise UsageError(f"spec file needs a valid 'command', got {command!r}")
    argv = [command]
    for key, value in payload.items():
        if key == "command":
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, (int, str)):
            argv.extend([flag, str(value)])
        elif isinstance(value, float):
            argv.extend([flag, repr(value)])
        else:
            raise UsageError(f"spec key {key!r} has unsupported type")
    return argv


_CELL_FORMATS = ((bool, "%s"), (int, "%d"), (float, "%.17g"))  # bool first: a bool is an int


def _render(records: list[dict], fmt: str) -> str:
    """`records`, which share their keys and cell types, as CSV or JSON text.

    NumericalFailure names the first float cell that is not finite. A CSV
    line is one `%` format, built from the first record's cell types. No
    cell needs quoting (its strings are model and strategy names), so the
    bytes are those of `csv.writer`.
    """
    first = records[0]
    floats = [key for key, value in first.items() if isinstance(value, float)]
    for record in records:
        for key in floats:
            if not math.isfinite(record[key]):
                raise NumericalFailure(f"non-finite value in column {key!r}: {record[key]}")
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    line = ",".join(
        next((f for kind, f in _CELL_FORMATS if isinstance(value, kind)), "%s")
        for value in first.values()
    ) + "\n"
    bools = [i for i, value in enumerate(first.values()) if isinstance(value, bool)]
    lines = [",".join(first) + "\n"]
    for record in records:
        cells = list(record.values())
        for i in bools:
            cells[i] = "true" if cells[i] else "false"
        lines.append(line % tuple(cells))
    return "".join(lines)


def _noise_model(ns: argparse.Namespace) -> NoiseModel:
    return _MODEL_FACTORIES[ns.model](ns.gamma)


def _cmd_qfi(ns: argparse.Namespace) -> tuple[str, int]:
    strategy = _STRATEGY_BY_FLAG[ns.strategy]
    n_anc = strategy.default_ancillas if ns.n_ancillas is None else ns.n_ancillas
    try:
        check_ancillas(strategy, n_anc)
    except ValueError as exc:
        raise UsageError(f"--n-ancillas: {exc}") from None
    c2 = math.sqrt(max(0.0, 1.0 - ns.c1**2))
    spec = ProbeSpec(
        complex(ns.c1), c2 * complex(math.cos(ns.c2_phase), math.sin(ns.c2_phase)),
        ns.n, n_anc,
    )
    unit, copies = block_probe(strategy, spec)
    if ns.oracle and unit.n_total > MAX_DENSE_QUBITS:
        raise UsageError(
            f"--oracle: dense representation capped at {MAX_DENSE_QUBITS} qubits, "
            f"got {unit.n_total}"
        )
    model = _noise_model(ns)
    result = qfi_closed(strategy, spec, model, ns.t)
    if result.f_freq == 0.0:
        raise NumericalFailure(
            "F = 0, so the qcrb t/F is infinite: the probe has no phase coherence "
            f"(|c1 c2|^2 is 0 in floating point) at c1={ns.c1!r} n={ns.n}")
    qcrb = ns.t / result.f_freq
    _check_normal([("qcrb", qcrb)], lambda _: f"gamma={ns.gamma!r} n={ns.n} t={ns.t!r}")
    record = {
        "model": ns.model,
        "strategy": strategy.value,
        "gamma": ns.gamma,
        "n": ns.n,
        "n_ancillas": n_anc,
        "c1": ns.c1,
        "c2_phase": ns.c2_phase,
        "t": ns.t,
        "omega": ns.omega,
        "f_freq": result.f_freq,
        "f_over_t": ns.t * result.f_phase,  # as t * (t * F_phase) forms F
        "qcrb": qcrb,
    }
    if ns.oracle:
        oracle = copies * qfi_sld_oracle(unit, model, ns.t, ns.omega).f_freq
        record["oracle_f_freq"] = oracle
        record["oracle_rel_dev"] = (
            abs(result.f_freq - oracle) / oracle if oracle > 0 else math.inf
        )
    return _render([record], ns.format), 0


def _cmd_table1(ns: argparse.Namespace) -> tuple[str, int]:
    model = _noise_model(ns)
    lo, hi = ns.n
    records = [table1(model, n, ns.t).as_dict() for n in range(lo, hi + 1)]
    return _render(records, ns.format), 0


def _cmd_sweep(ns: argparse.Namespace) -> tuple[str, int]:
    rows = sweep(_noise_model(ns), *ns.n, strategies=ns.strategy, c1=ns.c1)
    return _render([row.as_dict() for row in rows], ns.format), 0


def _cmd_verify(ns: argparse.Namespace) -> tuple[str, int]:
    results = run_verification(nmax=ns.nmax, seed=ns.seed)
    failed = [r for r in results if not r.passed]
    if ns.format == "json":
        text = _render([r.as_dict() for r in results], "json")
    else:
        lines = [
            f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}" for r in results
        ]
        lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
        text = "\n".join(lines) + "\n"
    return text, 4 if failed else 0


def _cmd_channel(ns: argparse.Namespace) -> tuple[str, int]:
    params = params_at(_noise_model(ns), ns.t)
    a = a_coefficients(params)
    eigs = sorted(_choi_spectrum(params, _FloatMath))
    record = {
        "model": ns.model,
        "gamma": ns.gamma,
        "t": ns.t,
        "theta_noise": params.theta_noise,
        "eta_perp": params.eta_perp,
        "eta_par": params.eta_par,
        "kappa": params.kappa,
        "a_pp": a.a_pp,
        "a_pm": a.a_pm,
        "a_mp": a.a_mp,
        "a_mm": a.a_mm,
        "choi_eig_0": eigs[0],
        "choi_eig_1": eigs[1],
        "choi_eig_2": eigs[2],
        "choi_eig_3": eigs[3],
        "cptp": is_cptp(params),
    }
    return _render([record], ns.format), 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later `run` calls."""
    parser = argparse.ArgumentParser(
        prog="ghzfreq",
        description="Frequency-estimation information for GHZ probes under "
        "phase-covariant noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse reads an argument as a negative number, and so as a value, only
    # if it matches its `_negative_number_matcher`, which has no exponent:
    # `--omega -1e-5` would be a flag. This one takes every negative float.
    negative_number = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")

    def command(name: str, handler, summary: str, rate=_RATE) -> argparse.ArgumentParser:
        """A subcommand run by `handler`; `rate` is the type of --gamma, None for no model."""
        p = sub.add_parser(name, help=summary)
        p._negative_number_matcher = negative_number
        p.set_defaults(handler=handler)
        if rate is not None:
            p.add_argument("--model", choices=sorted(_MODEL_FACTORIES), required=True)
            p.add_argument("--gamma", type=rate, required=True, help="decay rate")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="write to this path instead of stdout")
        return p

    p = command("qfi", _cmd_qfi, "information at one working point")
    p.add_argument("--n", type=_probe_count, required=True, help="probe count")
    p.add_argument("--t", type=_POSITIVE_TIME, required=True, help="interrogation time")
    p.add_argument("--strategy", choices=sorted(_STRATEGY_BY_FLAG), default="ghz-free")
    p.add_argument("--n-ancillas", type=int, default=None)
    p.add_argument("--c1", type=_AMPLITUDE, default=1.0 / math.sqrt(2.0))
    p.add_argument("--c2-phase", type=_FINITE, default=0.0)
    p.add_argument("--omega", type=_FINITE, default=0.0)
    p.add_argument("--oracle", action="store_true", help="add dense-oracle column")

    p = command("table1", _cmd_table1, "closed-form F/t summary table")
    p.add_argument("--n", type=_probe_range, required=True,
                   help="probe count or inclusive range a:b")
    p.add_argument("--t", type=_POSITIVE_TIME, required=True)

    p = command("sweep", _cmd_sweep, "optimal-time summary over a probe range",
                rate=_SWEEP_RATE)
    p.add_argument("--n", type=_probe_range, required=True,
                   help="probe count or inclusive range a:b")
    p.add_argument("--strategy", type=_strategy_list, default=tuple(StrategyKind),
                   help="comma-separated subset")
    p.add_argument("--c1", type=_AMPLITUDE, default=1.0 / math.sqrt(2.0))

    p = command("verify", _cmd_verify, "run the cross-route check suite", rate=None)
    p.add_argument("--nmax", type=_NMAX, default=5)
    p.add_argument("--seed", type=_SEED, default=7)

    p = command("channel", _cmd_channel, "inspect the noise map at one time")
    p.add_argument("--t", type=_TIME, required=True)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if "--spec" in argv:
            argv = _argv_from_spec_file(argv)
        ns = _build_parser().parse_args(argv)
        text, code = ns.handler(ns)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code) if exc.code else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if ns.output:
        try:
            Path(ns.output).write_text(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    raise SystemExit(run())
