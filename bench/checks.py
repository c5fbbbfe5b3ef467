"""Checks of each CLI output against `reference` or a property the method must have.

`check_op` takes the argument list, the exit code and the captured stdout of
one invocation and returns (records, problems): the number of output records
(CSV/JSON data rows, or `verify` checks) and a list of messages, empty when
the output is right. Nothing is compared against a saved copy of an earlier
output.
"""

from __future__ import annotations

import csv
import io
import json
import math

import reference

__all__ = ["check_op"]

REL_VALUE = 1e-9      # closed form vs reference, both in floating point
REL_T_OPT = 1e-6      # program's polished optimum vs a value-based search
# program's optimum vs an analytic one, per 500 probes: the program evaluates
# eta_perp**(2N), whose rounding grows with N and moves the located peak
# (about 2e-8 relative at N = 2500..3600 today)
REL_ANALYTIC_T_PER_500 = 1e-8
MAX_SATURATION_GAP = 1e-8
MAX_ORACLE_REL_DEV = 1e-9


def _args(argv: tuple[str, ...]) -> dict[str, str | bool]:
    out: dict[str, str | bool] = {"command": argv[0]}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def _cell(text: str) -> object:
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def _rows(stdout: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(stdout)
    return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(stdout))]


class _Problems(list):
    def rel(self, label: str, got: object, want: float, tol: float) -> None:
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            self.append(f"{label}: not a number ({got!r})")
        elif not math.isfinite(got) or abs(got - want) > tol * abs(want):
            self.append(f"{label}: got {got!r}, want {want!r} (rel tol {tol})")

    def eq(self, label: str, got: object, want: object) -> None:
        if got != want:
            self.append(f"{label}: got {got!r}, want {want!r}")


def _weights(args: dict) -> tuple[float, float]:
    c1 = float(args.get("c1", 1.0 / math.sqrt(2.0)))
    return c1 * c1, 1.0 - c1 * c1


def _check_qfi(args: dict, rows: list[dict], p: _Problems) -> None:
    p.eq("row count", len(rows), 1)
    if len(rows) != 1:
        return
    row = rows[0]
    strategy = str(args.get("strategy", "ghz-free")).replace("-", "_")
    model, gamma, n, t = args["model"], float(args["gamma"]), int(args["n"]), float(args["t"])
    w1, w2 = _weights(args)
    default_anc = 1 if strategy == "ghz_ancilla" else 0
    for key, want in (("model", model), ("strategy", strategy), ("gamma", gamma), ("n", n),
                      ("n_ancillas", int(args.get("n-ancillas", default_anc))), ("t", t)):
        p.eq(key, row.get(key), want)
    f = math.exp(reference.log_qfi(strategy, model, gamma, n, t, w1, w2))
    p.rel("f_freq", row.get("f_freq"), f, REL_VALUE)
    p.rel("f_over_t", row.get("f_over_t"), f / t, REL_VALUE)
    p.rel("qcrb", row.get("qcrb"), t / f, REL_VALUE)
    if args.get("oracle"):
        p.rel("oracle_f_freq", row.get("oracle_f_freq"), f, REL_VALUE)
        dev = row.get("oracle_rel_dev")
        if not isinstance(dev, float) or not 0.0 <= dev <= MAX_ORACLE_REL_DEV:
            p.append(f"oracle_rel_dev {dev!r} exceeds {MAX_ORACLE_REL_DEV}")


def _check_table1(args: dict, rows: list[dict], p: _Problems) -> None:
    lo, hi = (int(v) for v in str(args["n"]).split(":"))
    model, gamma, t = args["model"], float(args["gamma"]), float(args["t"])
    p.eq("rows", [r.get("n") for r in rows], list(range(lo, hi + 1)))
    for row in rows:
        n = int(row["n"])
        p.eq("model", row.get("model"), model)
        p.eq("gamma", row.get("gamma"), gamma)
        p.eq("t", row.get("t"), t)
        want = {
            s: reference.f_over_t(s, model, gamma, n, t, 0.5, 0.5)
            for s in ("ghz_free", "ghz_ancilla", "uncorrelated")
        }
        p.rel(f"n={n} f_ghz_over_t", row.get("f_ghz_over_t"), want["ghz_free"], REL_VALUE)
        p.rel(f"n={n} f_ancilla_over_t", row.get("f_ancilla_over_t"), want["ghz_ancilla"], REL_VALUE)
        p.rel(f"n={n} f_uncorrelated_over_t", row.get("f_uncorrelated_over_t"),
              want["uncorrelated"], REL_VALUE)
        # the commonly tabulated dpc GHZ expression is twice the true value
        factor = 2.0 if model == "dpc" else 1.0
        p.rel(f"n={n} f_ghz_over_t_literal", row.get("f_ghz_over_t_literal"),
              factor * want["ghz_free"], REL_VALUE)
        p.eq(f"n={n} literal_mismatch", row.get("literal_mismatch"), model == "dpc")


def _check_channel(args: dict, rows: list[dict], p: _Problems) -> None:
    p.eq("row count", len(rows), 1)
    if len(rows) != 1:
        return
    row = rows[0]
    model, gamma, t = args["model"], float(args["gamma"]), float(args["t"])
    p.eq("model", row.get("model"), model)
    p.eq("theta_noise", row.get("theta_noise"), 0.0)
    ep, el, ka = reference.channel(model, gamma, t)
    a = {"a_pp": 1 + el + ka, "a_pm": 1 + el - ka, "a_mp": 1 - el + ka, "a_mm": 1 - el - ka}
    want = {"eta_perp": ep, "eta_par": el, "kappa": ka, **a}
    want.update({f"choi_eig_{i}": v for i, v in enumerate(reference.choi_eigenvalues(ep, el, ka))})
    for key, value in want.items():
        got = row.get(key)
        if not isinstance(got, float) or abs(got - value) > 1e-12 + 1e-12 * abs(value):
            p.append(f"{key}: got {got!r}, want {value!r}")
    p.eq("cptp", row.get("cptp"), True)


def _check_sweep(args: dict, rows: list[dict], p: _Problems) -> None:
    text = str(args["n"])
    lo, hi = (int(v) for v in text.split(":")) if ":" in text else (int(text), int(text))
    order = ("uncorrelated", "ghz_free", "ghz_ancilla")
    chosen = order if "strategy" not in args else tuple(
        s for s in order if s in str(args["strategy"]).replace("-", "_").split(",")
    )
    model, gamma = args["model"], float(args["gamma"])
    w1, w2 = _weights(args)
    p.eq("rows", [(r.get("n"), r.get("strategy")) for r in rows],
         [(n, s) for n in range(lo, hi + 1) for s in chosen])
    best_unc: dict[int, float] = {}
    for row in rows:
        n, strategy = int(row["n"]), str(row["strategy"])
        where = f"n={n} {strategy}"
        p.eq(f"{where} model", row.get("model"), model)
        p.eq(f"{where} gamma", row.get("gamma"), gamma)
        t_ref, best_ref = reference.optimum(strategy, model, gamma, n, w1, w2)
        t_opt, best = row.get("t_opt"), row.get("f_over_t_max")
        analytic = strategy == "uncorrelated" or model == "pdc"
        t_tol = REL_ANALYTIC_T_PER_500 * max(1.0, n / 500) if analytic else REL_T_OPT
        p.rel(f"{where} t_opt", t_opt, t_ref, t_tol)
        p.rel(f"{where} f_over_t_max", best, best_ref, REL_VALUE)
        if isinstance(t_opt, float) and t_opt > 0:
            # the reported maximum is F/t at the reported time
            p.rel(f"{where} F/t at t_opt", best,
                  reference.f_over_t(strategy, model, gamma, n, t_opt, w1, w2), REL_VALUE)
        if n not in best_unc:
            best_unc[n] = reference.optimum("uncorrelated", model, gamma, n, w1, w2)[1]
        ratio = row.get("ratio_r")
        if strategy == "uncorrelated":
            p.eq(f"{where} ratio_r", ratio, 1.0)
        else:
            p.rel(f"{where} ratio_r", ratio, best_unc[n] / best_ref, REL_VALUE)
            if not isinstance(ratio, float) or not 0.0 < ratio <= 1.0 + 1e-12:
                p.append(f"{where} ratio_r {ratio!r} outside (0, 1]")
        gap = row.get("saturation_gap")
        if not isinstance(gap, float) or not abs(gap) <= MAX_SATURATION_GAP:
            p.append(f"{where} saturation_gap {gap!r} exceeds {MAX_SATURATION_GAP}")


def _check_verify(code: int, stdout: str, p: _Problems) -> int:
    lines = stdout.splitlines()
    checks = [line for line in lines if line.startswith("[")]
    p.eq("exit code", code, 0)
    if not checks:
        p.append("verify printed no checks")
    for line in checks:
        if not line.startswith("[PASS] "):
            p.append(f"verify check failed: {line}")
    p.eq("summary", lines[-1] if lines else None, f"{len(checks)}/{len(checks)} checks passed")
    return len(checks)


_CHECKS = {"qfi": _check_qfi, "table1": _check_table1, "channel": _check_channel,
           "sweep": _check_sweep}


def check_op(argv: tuple[str, ...], code: int, stdout: str) -> tuple[int, list[str]]:
    """(records, problems) for one successful invocation."""
    args = _args(argv)
    p = _Problems()
    if args["command"] == "verify":
        return _check_verify(code, stdout, p), p
    try:
        rows = _rows(stdout, str(args.get("format", "csv")))
    except (ValueError, csv.Error) as exc:
        return 0, [f"unparsable output: {exc}"]
    _CHECKS[str(args["command"])](args, rows, p)
    return len(rows), p
