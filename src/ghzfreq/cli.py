"""Command-line front end.

Five subcommands: `qfi` evaluates one working point, `table1` tabulates the
closed-form F/t for all strategies over a probe range, `sweep` emits the
optimal-time summary rows, `verify` runs the cross-route check suite, and
`channel` inspects the noise map itself. Output is CSV (17 significant
digits) or JSON, written to stdout or `--output`, and is byte-identical
for identical inputs. Exit codes: 0 success, 2 usage error, 3 numerical
failure, 4 verification failure.

Instead of flags, a run can be described by a flat JSON file passed as
`--spec run.json`; its keys are the flag names with underscores.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import NoiseModel, a_coefficients, adc, choi_matrix, dpc, is_cptp, params_at, pdc
from .fisher import (
    qfi_ancilla_closed,
    qfi_ghz_closed,
    qfi_sld_oracle,
    qfi_uncorrelated_closed,
)
from .optimize import StrategyKind, sweep, table1
from .state import ProbeSpec
from .verify import run_verification

__all__ = ["RunSpec", "run", "main"]

_MODEL_FACTORIES = {"adc": adc, "dpc": dpc, "pdc": pdc}
_STRATEGY_FLAGS = {
    "uncorrelated": StrategyKind.UNCORRELATED,
    "ghz-free": StrategyKind.GHZ_FREE,
    "ghz-ancilla": StrategyKind.GHZ_ANCILLA,
}


class UsageError(Exception):
    """Inconsistent or missing inputs; maps to exit code 2."""


class NumericalFailure(Exception):
    """A non-finite number reached the output; maps to exit code 3."""


@dataclass(frozen=True)
class RunSpec:
    """Validated inputs for one CLI invocation."""

    command: str
    model: str = "adc"
    gamma: float = 1.0
    n_lo: int = 1
    n_hi: int = 1
    n_ancillas: int = 0
    c1: float = 1.0 / math.sqrt(2.0)
    c2_phase: float = 0.0
    t: float = 0.0
    omega: float = 0.0
    strategies: tuple[StrategyKind, ...] = (StrategyKind.GHZ_FREE,)
    fmt: str = "csv"
    output: str | None = None
    oracle: bool = False
    jobs: int = 1
    nmax: int = 5
    seed: int = 7

    def noise_model(self) -> NoiseModel:
        return _MODEL_FACTORIES[self.model](self.gamma)

    def probe_spec(self, n: int, n_ancillas: int) -> ProbeSpec:
        c2 = math.sqrt(max(0.0, 1.0 - self.c1**2))
        return ProbeSpec(
            complex(self.c1), c2 * complex(math.cos(self.c2_phase), math.sin(self.c2_phase)),
            n, n_ancillas,
        )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later `run` calls."""
    parser = argparse.ArgumentParser(
        prog="ghzfreq",
        description="Frequency-estimation information for GHZ probes under "
        "phase-covariant noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, model: bool = True) -> None:
        if model:
            p.add_argument("--model", choices=sorted(_MODEL_FACTORIES), required=True)
            p.add_argument("--gamma", type=float, required=True, help="decay rate")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("qfi", help="information at one working point")
    common(p)
    p.add_argument("--n", required=True, help="probe count")
    p.add_argument("--t", type=float, required=True, help="interrogation time")
    p.add_argument("--strategy", choices=sorted(_STRATEGY_FLAGS), default="ghz-free")
    p.add_argument("--n-ancillas", type=int, default=None)
    p.add_argument("--c1", type=float, default=1.0 / math.sqrt(2.0))
    p.add_argument("--c2-phase", type=float, default=0.0)
    p.add_argument("--omega", type=float, default=0.0)
    p.add_argument("--oracle", action="store_true", help="add dense-oracle column")

    p = sub.add_parser("table1", help="closed-form F/t summary table")
    common(p)
    p.add_argument("--n", required=True, help="probe count or inclusive range a:b")
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("sweep", help="optimal-time summary over a probe range")
    common(p)
    p.add_argument("--n", required=True, help="probe count or inclusive range a:b")
    p.add_argument("--strategy", default=None, help="comma-separated subset")
    p.add_argument("--c1", type=float, default=1.0 / math.sqrt(2.0))
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for saved invocations; has no effect")

    p = sub.add_parser("verify", help="run the cross-route check suite")
    common(p, model=False)
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("channel", help="inspect the noise map at one time")
    common(p)
    p.add_argument("--t", type=float, required=True)
    return parser


def _parse_n_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"bad probe range {text!r}; expected N or a:b") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"bad probe range {text!r}; need 1 <= a <= b")
    return lo, hi


def _runspec_from_args(ns: argparse.Namespace) -> RunSpec:
    kw: dict = {"command": ns.command}
    if hasattr(ns, "model"):
        kw["model"] = ns.model
        if not ns.gamma >= 0 or not math.isfinite(ns.gamma):
            raise UsageError(f"gamma must be finite and >= 0, got {ns.gamma}")
        kw["gamma"] = ns.gamma
    kw["fmt"] = ns.format
    kw["output"] = ns.output
    if hasattr(ns, "n"):
        lo, hi = _parse_n_range(ns.n)
        if ns.command == "qfi" and lo != hi:
            raise UsageError("qfi takes a single probe count, not a range")
        kw["n_lo"], kw["n_hi"] = lo, hi
    if hasattr(ns, "t"):
        if not math.isfinite(ns.t) or ns.t < 0:
            raise UsageError(f"t must be finite and >= 0, got {ns.t}")
        kw["t"] = ns.t
    if hasattr(ns, "c1"):
        if not 0.0 <= ns.c1 <= 1.0:
            raise UsageError(f"c1 is a real amplitude in [0, 1], got {ns.c1}")
        kw["c1"] = ns.c1
    if hasattr(ns, "c2_phase"):
        kw["c2_phase"] = ns.c2_phase
    if hasattr(ns, "omega"):
        kw["omega"] = ns.omega
    if hasattr(ns, "oracle"):
        kw["oracle"] = ns.oracle
    if hasattr(ns, "jobs"):
        if ns.jobs < 1:
            raise UsageError(f"jobs must be >= 1, got {ns.jobs}")
        kw["jobs"] = ns.jobs
    if hasattr(ns, "nmax"):
        if not 1 <= ns.nmax <= 10:
            raise UsageError(f"nmax must be in 1..10, got {ns.nmax}")
        kw["nmax"] = ns.nmax
    if hasattr(ns, "seed"):
        kw["seed"] = ns.seed

    if ns.command == "qfi":
        strategy = _STRATEGY_FLAGS[ns.strategy]
        kw["strategies"] = (strategy,)
        n_anc = ns.n_ancillas
        if strategy is StrategyKind.GHZ_ANCILLA:
            n_anc = 1 if n_anc is None else n_anc
            if n_anc < 1:
                raise UsageError("ghz-ancilla needs --n-ancillas >= 1")
        else:
            n_anc = 0 if n_anc is None else n_anc
            if n_anc != 0:
                raise UsageError(f"strategy {ns.strategy!r} takes no ancillas")
        kw["n_ancillas"] = n_anc
        if kw["t"] <= 0:
            raise UsageError("qfi needs t > 0")
    elif ns.command == "table1":
        if kw["t"] <= 0:
            raise UsageError("table1 needs t > 0")
    elif ns.command == "sweep":
        if kw["gamma"] <= 0:
            raise UsageError("sweep optimizes over time and needs gamma > 0")
        if ns.strategy is None:
            kw["strategies"] = tuple(StrategyKind)
        else:
            names = [s.strip() for s in ns.strategy.split(",") if s.strip()]
            bad = [s for s in names if s not in _STRATEGY_FLAGS]
            if bad or not names:
                raise UsageError(
                    f"unknown strategy {bad[0]!r}" if bad else "empty strategy list"
                )
            kw["strategies"] = tuple(_STRATEGY_FLAGS[s] for s in names)
    return RunSpec(**kw)


_SPEC_LIST_KEYS = {"strategy", "n"}  # serialized as text, never JSON arrays


def _argv_from_spec_file(path: str) -> list[str]:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read spec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"spec file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError("spec file must hold a flat JSON object")
    command = payload.get("command")
    if command not in {"qfi", "table1", "sweep", "verify", "channel"}:
        raise UsageError(f"spec file needs a valid 'command', got {command!r}")
    argv = [str(command)]
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


def _fmt_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _require_finite(records: list[dict]) -> None:
    for record in records:
        for key, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise NumericalFailure(f"non-finite value in column {key!r}: {value}")


def _render(records: list[dict], fmt: str) -> str:
    _require_finite(records)
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(records[0].keys())
    for record in records:
        writer.writerow(_fmt_cell(v) for v in record.values())
    return buf.getvalue()


def _cmd_qfi(rs: RunSpec) -> tuple[str, int]:
    model = rs.noise_model()
    strategy = rs.strategies[0]
    spec = rs.probe_spec(rs.n_lo, rs.n_ancillas)
    compute = {
        StrategyKind.UNCORRELATED: qfi_uncorrelated_closed,
        StrategyKind.GHZ_FREE: qfi_ghz_closed,
        StrategyKind.GHZ_ANCILLA: qfi_ancilla_closed,
    }[strategy]
    result = compute(spec, model, rs.t)
    record = {
        "model": rs.model,
        "strategy": strategy.value,
        "gamma": rs.gamma,
        "n": rs.n_lo,
        "n_ancillas": rs.n_ancillas,
        "c1": rs.c1,
        "c2_phase": rs.c2_phase,
        "t": rs.t,
        "omega": rs.omega,
        "f_freq": result.f_freq,
        "f_over_t": result.f_freq / rs.t,
        "qcrb": rs.t / result.f_freq if result.f_freq > 0 else math.inf,
    }
    if rs.oracle:
        if strategy is StrategyKind.UNCORRELATED:
            single = rs.probe_spec(1, 0)
            oracle = rs.n_lo * qfi_sld_oracle(single, model, rs.t, rs.omega).f_freq
        else:
            oracle = qfi_sld_oracle(spec, model, rs.t, rs.omega).f_freq
        record["oracle_f_freq"] = oracle
        record["oracle_rel_dev"] = (
            abs(result.f_freq - oracle) / oracle if oracle > 0 else math.inf
        )
    return _render([record], rs.fmt), 0


def _cmd_table1(rs: RunSpec) -> tuple[str, int]:
    model = rs.noise_model()
    records = [
        table1(model, n, rs.t).as_dict() for n in range(rs.n_lo, rs.n_hi + 1)
    ]
    return _render(records, rs.fmt), 0


def _cmd_sweep(rs: RunSpec) -> tuple[str, int]:
    rows = sweep(
        rs.noise_model(),
        rs.n_lo,
        rs.n_hi,
        strategies=rs.strategies,
        c1=rs.c1,
        jobs=rs.jobs,
    )
    return _render([row.as_dict() for row in rows], rs.fmt), 0


def _cmd_verify(rs: RunSpec) -> tuple[str, int]:
    results = run_verification(nmax=rs.nmax, seed=rs.seed)
    failed = [r for r in results if not r.passed]
    if rs.fmt == "json":
        text = _render(
            [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
            "json",
        )
    else:
        lines = [
            f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}" for r in results
        ]
        lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
        text = "\n".join(lines) + "\n"
    return text, 4 if failed else 0


def _cmd_channel(rs: RunSpec) -> tuple[str, int]:
    model = rs.noise_model()
    params = params_at(model, rs.t)
    a = a_coefficients(params)
    eigs = np.linalg.eigvalsh(choi_matrix(params))
    record = {
        "model": rs.model,
        "gamma": rs.gamma,
        "t": rs.t,
        "theta_noise": params.theta_noise,
        "eta_perp": params.eta_perp,
        "eta_par": params.eta_par,
        "kappa": params.kappa,
        "a_pp": a.a_pp,
        "a_pm": a.a_pm,
        "a_mp": a.a_mp,
        "a_mm": a.a_mm,
        "choi_eig_0": float(eigs[0]),
        "choi_eig_1": float(eigs[1]),
        "choi_eig_2": float(eigs[2]),
        "choi_eig_3": float(eigs[3]),
        "cptp": is_cptp(params),
    }
    return _render([record], rs.fmt), 0


_HANDLERS = {
    "qfi": _cmd_qfi,
    "table1": _cmd_table1,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "channel": _cmd_channel,
}


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if "--spec" in argv:
        idx = argv.index("--spec")
        if idx + 1 >= len(argv):
            print("error: --spec needs a file path", file=sys.stderr)
            return 2
        if len(argv) != 2:
            print("error: --spec replaces all other arguments", file=sys.stderr)
            return 2
        try:
            argv = _argv_from_spec_file(argv[idx + 1])
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code) if exc.code else 0
    try:
        rs = _runspec_from_args(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        text, code = _HANDLERS[rs.command](rs)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if rs.output:
        try:
            Path(rs.output).write_text(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    raise SystemExit(run())
