import argparse
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import lambertw

import ghzfreq
from ghzfreq import choi_matrix, cli, params_at
from ghzfreq.cli import run
from ghzfreq.channel import adc, dpc, pdc
from ghzfreq.fisher import log_qfi_phase
from ghzfreq.optimize import StrategyKind, sweep
from ghzfreq.state import ProbeSpec

ROOT = Path(__file__).resolve().parent.parent


def module_env():
    """Environment in which a child `python -m ghzfreq` imports the package under test."""
    env = dict(os.environ)
    src = str(Path(ghzfreq.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_capture(args, capsys):
    code = run(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no CSV rows in output: {text!r}"
    return rows


class TestQfi:
    def test_phase_damping_reference_point(self, capsys):
        code, out, _ = run_capture(
            ["qfi", "--model", "pdc", "--gamma", "1", "--n", "3", "--t", "0.1",
             "--strategy", "ghz-free"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        expected = 0.1 * 9 * math.exp(-0.6)
        assert float(row["f_over_t"]) == pytest.approx(expected, rel=1e-12)
        assert float(row["qcrb"]) == pytest.approx(0.1 / (0.1 * expected), rel=1e-12)

    def test_oracle_column(self, capsys):
        code, out, _ = run_capture(
            ["qfi", "--model", "adc", "--gamma", "1", "--n", "2", "--t", "0.4",
             "--strategy", "ghz-ancilla", "--oracle"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["oracle_rel_dev"]) < 1e-7
        assert row["n_ancillas"] == "1"  # ancilla default

    def test_uncorrelated_oracle_at_any_n(self, capsys):
        # the oracle of N uncorrelated probes is one one-qubit probe, N times
        code, out, _ = run_capture(
            ["qfi", "--model", "adc", "--gamma", "1", "--n", "40", "--t", "0.1",
             "--strategy", "uncorrelated", "--oracle"],
            capsys,
        )
        assert code == 0
        assert float(parse_csv(out)[0]["oracle_rel_dev"]) < 1e-12

    def test_json_format_round_trips(self, capsys):
        args = ["qfi", "--model", "dpc", "--gamma", "0.8", "--n", "4", "--t", "0.3",
                "--strategy", "uncorrelated", "--format", "json"]
        code, out, _ = run_capture(args, capsys)
        assert code == 0
        (record,) = json.loads(out)
        assert record["strategy"] == "uncorrelated"
        assert record["f_over_t"] == pytest.approx(
            4 * 0.3 * math.exp(-2 * 0.8 * 0.3), rel=1e-12
        )

    @pytest.mark.parametrize("model", ["adc", "dpc", "pdc"])
    def test_f_over_t_prints_the_table1_bytes(self, model, monkeypatch, capsys):
        # qfi's F/t is t F_phase, as table1 forms it, not F / t, which is
        # (t (t F_phase)) / t and an ulp off one draw in ten. table1 is taken
        # at qfi's own probe: c2 = sqrt(1 - c1^2) is not balanced's 1/sqrt(2).
        c1 = 1.0 / math.sqrt(2.0)
        qfi_probe = ProbeSpec(complex(c1), complex(math.sqrt(1.0 - c1**2)), 1)
        monkeypatch.setattr(ProbeSpec, "balanced", staticmethod(
            lambda n, ancillas=0: dataclasses.replace(qfi_probe, n_probes=n, n_ancillas=ancillas)))
        columns = {"ghz-free": "f_ghz_over_t", "ghz-ancilla": "f_ancilla_over_t",
                   "uncorrelated": "f_uncorrelated_over_t"}
        rng = np.random.default_rng(11)
        for n, t in zip(rng.integers(1, 40, size=20), 10.0 ** rng.uniform(-3.0, 0.5, size=20)):
            point = ["--model", model, "--gamma", "1", "--n", str(n), "--t", repr(float(t))]
            code, out, _ = run_capture(["table1", *point], capsys)
            assert code == 0
            table = parse_csv(out)[0]
            for strategy, column in columns.items():
                code, out, _ = run_capture(["qfi", *point, "--strategy", strategy], capsys)
                row = parse_csv(out)[0]
                assert code == 0 and row["f_over_t"] == table[column], (strategy, n, t)
                assert float(row["f_freq"]) == float(t) * float(row["f_over_t"])

    def test_seventeen_digit_cells_round_trip(self, capsys):
        args = ["qfi", "--model", "adc", "--gamma", "1", "--n", "3", "--t", "0.7"]
        _, csv_out, _ = run_capture(args, capsys)
        _, json_out, _ = run_capture(args + ["--format", "json"], capsys)
        row = parse_csv(csv_out)[0]
        (record,) = json.loads(json_out)
        assert float(row["f_freq"]) == record["f_freq"]  # exact, not approximate

    def test_range_rejected(self, capsys):
        code, _, err = run_capture(
            ["qfi", "--model", "adc", "--gamma", "1", "--n", "1:3", "--t", "0.5"],
            capsys,
        )
        assert code == 2 and "single probe count" in err

    def test_ancilla_flag_consistency(self, capsys):
        code, _, err = run_capture(
            ["qfi", "--model", "adc", "--gamma", "1", "--n", "2", "--t", "0.5",
             "--strategy", "ghz-free", "--n-ancillas", "2"],
            capsys,
        )
        assert code == 2 and "no ancillas" in err

    @pytest.mark.parametrize("c1", ["0", "1.0"])
    def test_degenerate_probe_names_its_missing_coherence(self, c1, capsys, monkeypatch):
        # c1 = 0 or 1 has no coherence: F = 0 and the bound diverges, named
        # before the oracle evolves any dense state
        evolved = []
        monkeypatch.setattr("ghzfreq.fisher.evolve_dense", lambda *a: evolved.append(a))
        code, out, err = run_capture(
            ["qfi", "--model", "adc", "--gamma", "1", "--n", "3", "--t", "0.5",
             "--c1", c1, "--oracle"],
            capsys,
        )
        assert code == 3 and out == "" and evolved == []
        assert err == (
            "numerical failure: F = 0, so the qcrb t/F is infinite: the probe has no phase "
            f"coherence (|c1 c2|^2 is 0 in floating point) at c1={float(c1)!r} n=3\n"
        )

    def test_oracle_rotation_overflow_is_named(self, capsys):
        code, out, err = run_capture(
            ["qfi", "--model", "adc", "--gamma", "1", "--n", "2", "--t", "10",
             "--omega", "1e308", "--oracle"],
            capsys,
        )
        assert code == 3 and out == ""
        assert err == (
            "numerical failure: the rotation angle theta_noise + omega*t = inf is not a finite "
            "double at theta_noise=0.0, omega=1e+308, t=10.0\n"
        )


class TestSweep:
    def test_header_and_column_order(self, capsys):
        code, out, _ = run_capture(
            ["sweep", "--model", "adc", "--gamma", "1", "--n", "2:3"], capsys
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "n,strategy,model,gamma,t_opt,f_over_t_max,ratio_r,saturation_gap"
        rows = parse_csv(out)
        assert [r["strategy"] for r in rows] == [
            "uncorrelated", "ghz_free", "ghz_ancilla",
        ] * 2

    def test_ancilla_ratio_plateau(self, capsys):
        code, out, _ = run_capture(
            ["sweep", "--model", "adc", "--gamma", "1", "--n", "1:6",
             "--strategy", "ghz-ancilla"],
            capsys,
        )
        assert code == 0
        for row in parse_csv(out):
            assert float(row["ratio_r"]) == pytest.approx(0.66, abs=0.01)

    def test_strategy_subset_filter(self, capsys):
        code, out, _ = run_capture(
            ["sweep", "--model", "pdc", "--gamma", "2", "--n", "3",
             "--strategy", "ghz-free,uncorrelated"],
            capsys,
        )
        assert code == 0
        assert [r["strategy"] for r in parse_csv(out)] == ["uncorrelated", "ghz_free"]

    def test_zero_gamma_is_usage_error(self, capsys):
        code, _, err = run_capture(
            ["sweep", "--model", "adc", "--gamma", "0", "--n", "1:3"], capsys
        )
        assert code == 2 and "gamma" in err

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run_capture(
            ["sweep", "--model", "adc", "--gamma", "1", "--n", "5:2"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("c1", ["0.0", "1.0"])
    def test_probe_without_coherence_exits_3(self, c1, capsys):
        code, out, err = run_capture(
            ["sweep", "--model", "adc", "--gamma", "1", "--n", "2", "--c1", c1], capsys
        )
        assert code == 3 and out == ""
        assert "no phase coherence" in err

    @pytest.mark.parametrize("model", ["adc", "dpc", "pdc"])
    def test_tiny_rate(self, model, capsys):
        # t_opt ~ 1e300, so F = t^2 F_phase overflows although F/t and the gap do not
        code, out, err = run_capture(
            ["sweep", "--model", model, "--gamma", "1e-300", "--n", "3"], capsys
        )
        assert code == 0 and err == ""
        for row in parse_csv(out):
            assert 1e298 < float(row["t_opt"]) < 1e301
            assert abs(float(row["saturation_gap"])) <= 1e-15


    @pytest.mark.parametrize("argv", [
        ["--model", "adc", "--gamma", "1e154", "--n", "1:2"],
        ["--model", "adc", "--gamma", "1e300", "--n", "1:2"],
        ["--model", "dpc", "--gamma", "1e300", "--n", "1000000"],
        ["--model", "adc", "--gamma", "1e307", "--n", "2"],
    ], ids=" ".join)
    def test_huge_rate(self, argv, capsys):
        # t_opt ~ 1e-300, so F = t^2 F_phase underflows although F/t and the gap do not;
        # the last optimum, x / gamma with x = gamma t_opt about 1, is still a normal double
        code, out, err = run_capture(["sweep", *argv], capsys)
        assert code == 0 and err == ""
        for row in parse_csv(out):
            assert 0.0 < float(row["t_opt"]) < 1e-150
            assert abs(float(row["saturation_gap"])) <= 2e-15

    @pytest.mark.parametrize("argv, word", [
        (["--gamma", "1e-320", "--n", "1:3", "--c1", "0.6"], "overflows"),
        (["--gamma", "1e-300", "--n", "1000000000", "--strategy", "ghz-free"], "overflows"),
        (["--gamma", "1e308", "--n", "1000000000000", "--strategy", "ghz-free"], "underflows"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_double_range_exceeded_exits_3(self, argv, word, capsys):
        # t_opt = x/gamma or F/t ~ N/gamma leaves the normal doubles; the error
        # says so, not that the probe lacks coherence or the profile a peak
        code, out, err = run_capture(["sweep", "--model", "adc", *argv], capsys)
        assert code == 3 and out == ""
        assert word in err and "strategy=" in err
        assert "phase coherence" not in err and "unimodal" not in err

    @pytest.mark.parametrize("argv", [
        ["--model", "adc", "--gamma", "1.7e308", "--n", "1:2"],
        ["--model", "adc", "--gamma", "1e308", "--n", "1:2"],
        ["--model", "dpc", "--gamma", "5e307", "--n", "1:3", "--strategy", "ghz-free"],
        ["--model", "adc", "--gamma", "1e307", "--n", "1:30"],
        ["--model", "adc", "--gamma", "1e305", "--n", "1000"],
    ], ids=" ".join)
    def test_subnormal_optimum_exits_3_naming_it(self, argv, capsys):
        # t_opt = x/gamma with x = gamma t_opt of order 1/N is subnormal; the
        # error says so, not that the slope keeps its sign
        code, out, err = run_capture(["sweep", *argv], capsys)
        assert code == 3 and out == ""
        assert re.search(r"t_opt = \S+ underflows double precision, below the smallest "
                         r"normal double .*strategy=", err), err
        assert "does not change sign" not in err and "phase coherence" not in err

    def test_closed_form_optimum_below_the_smallest_normal_double_exits_3(self, capsys):
        # pdc GHZ takes x_opt = 1/(2N) in closed form; x_opt / gamma is subnormal
        code, out, err = run_capture(
            ["sweep", "--model", "pdc", "--gamma", "1e305", "--n", "1000",
             "--strategy", "ghz-free"], capsys)
        assert code == 3 and out == ""
        assert re.search(r"t_opt = \S+ underflows double precision, below the smallest "
                         r"normal double .*strategy=ghz_free", err), err
        assert "does not change sign" not in err and "phase coherence" not in err

    @pytest.mark.parametrize("c1", ["0.0", "1.0"])
    def test_no_coherence_is_named_before_a_subnormal_optimum(self, c1, capsys):
        code, _, err = run_capture(
            ["sweep", "--model", "pdc", "--gamma", "1e308", "--n", "3", "--c1", c1], capsys)
        assert code == 3 and "no phase coherence" in err

    @pytest.mark.parametrize("model", ["pdc", "adc", "dpc"])
    def test_f_over_t_overflow_exits_3(self, model, capsys):
        # pdc's GHZ rows take the closed form, adc's and dpc's are searched;
        # either way the overflow is named once, at the maximizer's exit
        code, out, err = run_capture(
            ["sweep", "--model", model, "--gamma", "1e-300", "--n", "1000000000",
             "--strategy", "ghz-free,ghz-ancilla"], capsys)
        assert code == 3 and out == ""
        assert "F/t overflows double precision at gamma=1e-300" in err
        assert "strategy=ghz_free" in err

    @pytest.mark.parametrize("argv", [
        ["--model", "adc", "--gamma", "5e-307", "--n", "1:3", "--c1", "0.6"],
        ["--model", "pdc", "--gamma", "1e-307", "--n", "1:2"],
    ], ids=" ".join)
    def test_tiniest_rates_match_the_closed_forms(self, argv, capsys):
        # t_opt ~ 1/gamma and F/t ~ N/gamma are normal doubles although 100/gamma is not
        code, out, err = run_capture(["sweep", *argv], capsys)
        assert code == 0 and err == ""
        model = {"adc": adc, "pdc": pdc}[argv[1]](float(argv[3]))
        c1 = float(argv[argv.index("--c1") + 1]) if "--c1" in argv else 1.0 / math.sqrt(2.0)
        c2 = math.sqrt(1.0 - c1 * c1)
        rho = c1 * c1 / (c2 * c2)
        for row in parse_csv(out):
            n, t_opt, kind = int(row["n"]), float(row["t_opt"]), row["strategy"]
            spec = ProbeSpec(c1, c2, n, 1 if kind == "ghz_ancilla" else 0)
            strategy = StrategyKind(kind)
            # F/t = t F_phase(t), the closed form at the printed optimum
            f_over_t = t_opt * math.exp(log_qfi_phase(strategy, spec, model, t_opt))
            assert float(row["f_over_t_max"]) == pytest.approx(f_over_t, rel=1e-14)
            if kind == "uncorrelated":
                exact = 1.0 / (model.gamma * (1.0 if model.kind == "adc" else 2.0))
            elif model.kind == "pdc":
                exact = 1.0 / (2.0 * n * model.gamma)
            elif kind == "ghz_ancilla":
                # Nγt = 1 + W(ρ/e) with ρ = |c1|²/|c2|² (adc)
                exact = (1.0 + lambertw(rho / math.e).real) / (n * model.gamma)
            else:
                continue
            assert t_opt == pytest.approx(exact, rel=1e-14), row

    def test_smallest_rate_with_a_finite_window(self, capsys):
        code, out, err = run_capture(
            ["sweep", "--model", "adc", "--gamma", "6e-307", "--n", "1:3", "--c1", "0.6"], capsys
        )
        assert code == 0 and err == ""
        assert len(parse_csv(out)) == 9


def _reference_cell(value):
    """A CSV cell as the writer's rules give it, spelled out one type at a time."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _reference_csv(records):
    """`records` rendered cell by cell with `csv.writer` and `_reference_cell`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(records[0].keys())
    for record in records:
        writer.writerow(_reference_cell(v) for v in record.values())
    return buf.getvalue()


SWEEP_RENDER_CASES = [
    (model, gamma, c1, n, strategies)
    for model in ("adc", "dpc", "pdc")
    for gamma, c1, n, strategies in (
        ("1e-300", 0.6, "3", None),
        ("3.7e-42", 0.35, "1:4", "ghz-free"),
        ("0.13", 0.9, "1:12", None),
        ("1.3", 1.0 / math.sqrt(2.0), "5:9", "uncorrelated,ghz-ancilla"),
        ("7", 0.2, "30:33", "ghz-free,ghz-ancilla"),
        ("2.5e77", 0.75, "1:3", "uncorrelated"),
        ("1e300", 0.55, "2", None),
    )
]


class TestSweepRender:
    """`sweep` writes each CSV row with one format string; the bytes are those
    of `csv.writer` over `_reference_cell`, and JSON is `json.dumps` of the records."""

    @pytest.mark.parametrize("model,gamma,c1,n,strategies", SWEEP_RENDER_CASES)
    def test_csv_and_json_bytes(self, model, gamma, c1, n, strategies, capsys):
        argv = ["sweep", "--model", model, "--gamma", gamma, "--n", n, "--c1", repr(c1)]
        if strategies is not None:
            argv += ["--strategy", strategies]
        lo, hi = map(int, n.split(":")) if ":" in n else (int(n), int(n))
        chosen = None if strategies is None else cli._strategy_list(strategies)
        rows = sweep(cli._MODEL_FACTORIES[model](float(gamma)), lo, hi, chosen, c1)
        records = [row.as_dict() for row in rows]
        code, out, err = run_capture(argv, capsys)
        assert code == 0 and err == ""
        assert out == _reference_csv(records)
        code, out, err = run_capture([*argv, "--format", "json"], capsys)
        assert code == 0 and err == ""
        assert out == json.dumps(records, indent=2) + "\n"

    @pytest.mark.parametrize("field", ["t_opt", "f_over_t_max", "ratio_r", "saturation_gap"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cell_exits_3(self, field, bad, fmt, monkeypatch, capsys):
        def poisoned(*args, **kwargs):
            rows = sweep(*args, **kwargs)
            return [*rows[:-1], dataclasses.replace(rows[-1], **{field: bad})]

        monkeypatch.setattr(cli, "sweep", poisoned)
        code, out, err = run_capture(
            ["sweep", "--model", "adc", "--gamma", "1", "--n", "1:3", "--format", fmt], capsys
        )
        assert code == 3 and out == ""
        assert f"non-finite value in column {field!r}" in err


RENDER_CASES = [
    ["qfi", "--model", "adc", "--gamma", "1.3", "--n", "5", "--t", "0.4"],
    ["qfi", "--model", "dpc", "--gamma", "0.7", "--n", "3", "--t", "0.2",
     "--strategy", "ghz-ancilla", "--n-ancillas", "3"],
    ["qfi", "--model", "dpc", "--gamma", "0.7", "--n", "3", "--t", "0.2",
     "--strategy", "ghz-ancilla", "--n-ancillas", "3", "--oracle"],
    ["qfi", "--model", "pdc", "--gamma", "7", "--n", "2", "--t", "0.05",
     "--strategy", "uncorrelated", "--c1", "0.35", "--c2-phase", "0.9", "--omega", "-2.5",
     "--oracle"],
    ["table1", "--model", "dpc", "--gamma", "1", "--n", "1:6", "--t", "0.3"],
    ["table1", "--model", "adc", "--gamma", "0.13", "--n", "990:993", "--t", "0.2"],
    ["channel", "--model", "adc", "--gamma", "1", "--t", "0.3"],
    ["channel", "--model", "dpc", "--gamma", "7", "--t", "0"],
]


class TestRender:
    """Every command's records go through one writer: CSV bytes are those of
    `csv.writer` over `_reference_cell`, JSON is `json.dumps` of the records,
    and a non-finite float cell exits 3 naming its column."""

    @pytest.mark.parametrize("argv", RENDER_CASES, ids=" ".join)
    def test_csv_and_json_bytes(self, argv, capsys):
        code, out, err = run_capture([*argv, "--format", "json"], capsys)
        assert code == 0 and err == ""
        records = json.loads(out)
        assert out == json.dumps(records, indent=2) + "\n"
        code, out, err = run_capture(argv, capsys)
        assert code == 0 and err == ""
        assert out == _reference_csv(records)

    @pytest.mark.parametrize("poisoned", [False, True])
    def test_verify_json_bytes(self, poisoned, monkeypatch, capsys):
        # a NaN criterion value is written as null, never as JSON's invalid NaN
        if poisoned:
            _poison_second_call(monkeypatch, *VERIFY_POISONS["route_agreement"][:2])
        code, out, err = run_capture(["verify", "--nmax", "2", "--format", "json"], capsys)
        assert (code, err) == (4 if poisoned else 0, "")

        def reject(constant):
            raise ValueError(f"invalid JSON constant {constant}")

        records = json.loads(out, parse_constant=reject)
        assert {type(r["passed"]) for r in records} == {bool}
        assert out == json.dumps(records, indent=2) + "\n"
        for record in records:
            assert record["criteria"]
            for criterion in record["criteria"]:
                assert list(criterion) == ["label", "value", "low", "high"]
        route = records[0]
        assert route["name"] == "route_agreement" and route["passed"] is not poisoned
        assert route["criteria"] == [{"label": "closed vs SLD oracle, max rel dev",
                                      "value": None if poisoned else route["criteria"][0]["value"],
                                      "low": None, "high": 1e-7}]
        assert [r["passed"] for r in records[1:]] == [True] * 8

    @pytest.mark.parametrize("field", ["f_ghz_over_t", "f_ancilla_over_t",
                                       "f_uncorrelated_over_t", "f_ghz_over_t_literal"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_table1_cell_exits_3(self, field, bad, fmt, monkeypatch, capsys):
        build = cli.table1

        def poisoned(model, n, t):
            row = build(model, n, t)
            return dataclasses.replace(row, **{field: bad}) if n == 3 else row

        monkeypatch.setattr(cli, "table1", poisoned)
        code, out, err = run_capture(
            ["table1", "--model", "adc", "--gamma", "1", "--n", "1:4", "--t", "0.2",
             "--format", fmt], capsys
        )
        assert code == 3 and out == ""
        assert f"non-finite value in column {field!r}: {bad}" in err

    @pytest.mark.parametrize("field", ["a_pp", "a_pm", "a_mp", "a_mm"])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_channel_cell_exits_3(self, field, bad, fmt, monkeypatch, capsys):
        coefficients = cli.a_coefficients
        monkeypatch.setattr(cli, "a_coefficients",
                            lambda params: dataclasses.replace(coefficients(params),
                                                               **{field: bad}))
        code, out, err = run_capture(
            ["channel", "--model", "adc", "--gamma", "1", "--t", "0.3", "--format", fmt], capsys
        )
        assert code == 3 and out == ""
        assert f"non-finite value in column {field!r}: {bad}" in err

    def test_numpy_float_cells(self):
        record = {"n": 2, "x": np.float64(0.1), "ok": True, "model": "adc"}
        assert cli._render([record], "csv") == "n,x,ok,model\n2,0.10000000000000001,true,adc\n"
        assert cli._render([record], "csv") == _reference_csv([record])
        for fmt in ("csv", "json"):
            with pytest.raises(cli.NumericalFailure, match="column 'x': inf"):
                cli._render([record, {**record, "x": np.float64(np.inf)}], fmt)


class TestLargeNSweep:
    @pytest.mark.parametrize("model", ["adc", "dpc"])
    def test_million_probes(self, model, capsys):
        code, out, _ = run_capture(
            ["sweep", "--model", model, "--gamma", "1", "--n", "1000000",
             "--strategy", "ghz-free,ghz-ancilla"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["strategy"] for r in rows] == ["ghz_free", "ghz_ancilla"]
        for row in rows:
            value = float(row["f_over_t_max"])
            assert math.isfinite(value) and value > 0.0
            assert 0.0 < float(row["ratio_r"]) <= 1.0


# dpc points whose eta_perp**(2N) underflows in linear space; (strategy, N, gamma, t)
DEEP_DECAY_POINTS = (
    ("ghz-free", 2000, 1.0, 0.2),
    ("ghz-free", 1000, 2.0, 0.2),
    ("ghz-ancilla", 2000, 1.0, 0.2),
    ("ghz-ancilla", 1500, 1.0, 0.3),
)


def log_qfi_dpc_balanced(strategy, n, gamma, t):
    """log F of a balanced dpc GHZ probe, written out independently in log space."""
    g = math.exp(-gamma * t)
    terms = [n * math.log((1.0 + g) / 2.0)]
    if strategy == "ghz-free":
        terms.append(n * math.log((1.0 - g) / 2.0))
    top = max(terms)
    log_r0 = top + math.log(sum(math.exp(v - top) for v in terms))
    return 2.0 * math.log(t) + 2.0 * math.log(n) - 2.0 * n * gamma * t - log_r0


class TestDeepDecay:
    @pytest.mark.parametrize("strategy,n,gamma,t", DEEP_DECAY_POINTS)
    def test_qfi_matches_log_space_reference(self, strategy, n, gamma, t, capsys):
        code, out, _ = run_capture(
            ["qfi", "--model", "dpc", "--gamma", str(gamma), "--n", str(n),
             "--t", str(t), "--strategy", strategy],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        want = math.exp(log_qfi_dpc_balanced(strategy, n, gamma, t))
        assert want > 0.0
        # math.isclose: pytest.approx would add an absolute 1e-12, which passes any tiny value
        assert math.isclose(float(row["f_freq"]), want, rel_tol=1e-9)
        assert math.isclose(float(row["f_over_t"]), want / t, rel_tol=1e-9)

    def test_table1_prints_the_tiny_value(self, capsys):
        code, out, _ = run_capture(
            ["table1", "--model", "dpc", "--gamma", "1", "--n", "2000", "--t", "0.2"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        want = math.exp(log_qfi_dpc_balanced("ghz-free", 2000, 1.0, 0.2)) / 0.2
        want_anc = math.exp(log_qfi_dpc_balanced("ghz-ancilla", 2000, 1.0, 0.2)) / 0.2
        assert math.isclose(float(row["f_ghz_over_t"]), want, rel_tol=1e-9)
        assert math.isclose(float(row["f_ancilla_over_t"]), want_anc, rel_tol=1e-9)
        assert 9.7e-260 < float(row["f_ghz_over_t"]) < 9.9e-260
        assert math.isclose(float(row["f_ghz_over_t_literal"]), 2.0 * want, rel_tol=1e-9)
        assert row["literal_mismatch"] == "true"

    def test_underflow_exits_3(self, capsys):
        code, out, err = run_capture(
            ["table1", "--model", "dpc", "--gamma", "1", "--n", "20000", "--t", "0.2"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "underflow" in err


class TestTable1:
    def test_row_per_probe_count(self, capsys):
        code, out, _ = run_capture(
            ["table1", "--model", "pdc", "--gamma", "1", "--n", "1:5", "--t", "0.2"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["1", "2", "3", "4", "5"]
        assert all(r["literal_mismatch"] == "false" for r in rows)

    def test_depolarizing_flags_the_factor_two(self, capsys):
        code, out, _ = run_capture(
            ["table1", "--model", "dpc", "--gamma", "1", "--n", "2", "--t", "0.3"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["literal_mismatch"] == "true"
        ratio = float(row["f_ghz_over_t_literal"]) / float(row["f_ghz_over_t"])
        assert ratio == pytest.approx(2.0, abs=1e-9)


class TestTimesWhoseSquareLeavesTheDoubles:
    """F = t (t F_phase) and table1's F/t = t F_phase, against log space: t^2
    alone is subnormal or overflows in these runs, though F or F/t is not."""

    @pytest.mark.parametrize("argv", [
        ["--model", "pdc", "--gamma", "3.2822316969401476e-127", "--t", "3.4459692113448613e-162",
         "--n", "8131512162", "--strategy", "ghz-ancilla", "--c1", "0.22744762175569644",
         "--c2-phase", "-4.740863314495732", "--omega", "104.93735973143043",
         "--n-ancillas", "2"],
        ["--model", "pdc", "--gamma", "3.45e-198", "--n", "1", "--t", "1e200",
         "--strategy", "uncorrelated"],
        ["--model", "pdc", "--gamma", "1", "--n", str(10**100), "--t", "1e-160",
         "--strategy", "uncorrelated"],
    ], ids=["subnormal-t2", "overflowing-t2", "subnormal-t2-huge-n"])
    def test_qfi(self, argv, capsys):
        code, out, err = run_capture(["qfi", *argv], capsys)
        assert code == 0, err
        row = parse_csv(out)[0]
        c1, t = float(row["c1"]), float(row["t"])
        spec = ProbeSpec(c1, math.sqrt(1.0 - c1 * c1), int(row["n"]), int(row["n_ancillas"]))
        log_f = log_qfi_phase(StrategyKind(row["strategy"]), spec, pdc(float(row["gamma"])), t)
        want = math.exp(2.0 * math.log(t) + log_f)
        # math.isclose: pytest.approx would also pass anything within 1e-12 absolute
        assert math.isclose(float(row["f_freq"]), want, rel_tol=1e-12)
        assert math.isclose(float(row["f_over_t"]), want / t, rel_tol=1e-12)

    def test_qfi_oracle(self, capsys):
        code, out, err = run_capture(
            ["qfi", "--model", "pdc", "--gamma", "3.45e-198", "--n", "1", "--t", "1e200",
             "--strategy", "uncorrelated", "--oracle"], capsys
        )
        assert code == 0, err
        assert float(parse_csv(out)[0]["oracle_rel_dev"]) <= 1e-12

    def test_table1(self, capsys):
        code, out, err = run_capture(
            ["table1", "--model", "dpc", "--gamma", "1", "--n", "2", "--t", "1e-170"], capsys
        )
        assert code == 0, err
        row = parse_csv(out)[0]
        for column, kind, n_anc in (("f_ghz_over_t", StrategyKind.GHZ_FREE, 0),
                                    ("f_ancilla_over_t", StrategyKind.GHZ_ANCILLA, 1),
                                    ("f_uncorrelated_over_t", StrategyKind.UNCORRELATED, 0)):
            log_f = log_qfi_phase(kind, ProbeSpec.balanced(2, n_anc), dpc(1.0), 1e-170)
            want = math.exp(math.log(1e-170) + log_f)
            assert math.isclose(float(row[column]), want, rel_tol=1e-12), column

    def test_table1_subnormal_f_phase_exits_3(self, capsys):
        # F_phase = e^-740 keeps a few bits; t F_phase = 4.19e-308 would be 0.26% off
        code, out, err = run_capture(
            ["table1", "--model", "pdc", "--gamma", "3.7e-12", "--n", "1", "--t", "1e14"], capsys
        )
        assert code == 3 and out == ""
        assert err == (
            "numerical failure: F_phase = 4.2e-322 underflows double precision, below the "
            "smallest normal double 2.2250738585072014e-308, at gamma=3.7e-12 "
            "t=100000000000000.0: strategy=ghz_free model=pdc n=1\n")


class TestQcrbOutsideTheDoubles:
    """`qfi` prints qcrb = t/F only as a normal double; below that it exits 3 naming it."""

    ARGV = ["qfi", "--model", "pdc", "--gamma", "1e-300", "--t", "0.5", "--n"]

    def test_subnormal_qcrb_exits_3(self, capsys):
        code, out, err = run_capture(self.ARGV + [str(13 * 10**153)], capsys)
        assert code == 3 and out == ""
        assert ("qcrb = 1.1834319526627685e-308 underflows double precision, below the "
                "smallest normal double 2.2250738585072014e-308, at gamma=1e-300") in err

    def test_normal_qcrb_keeps_its_bytes(self, capsys):
        code, out, err = run_capture(self.ARGV + [str(10**153)], capsys)
        assert code == 0, err
        assert out == (
            "model,strategy,gamma,n,n_ancillas,c1,c2_phase,t,omega,f_freq,f_over_t,qcrb\n"
            f"pdc,ghz_free,1e-300,{10**153},0,0.70710678118654746,0,0.5,0,"
            "2.5000000000000815e+305,5.000000000000163e+305,1.9999999999999349e-306\n"
        )


BELOW = "underflows double precision, below the smallest normal double 2.2250738585072014e-308"
HUGE_N = {"1.3e154": 13 * 10**153, "1e160": 10**160, "1e200": 10**200, "1e305": 10**305,
          "9e307": 9 * 10**307, "1e400": 10**400}


def _argv(words):
    """The argv of `words`, with each HUGE_N key replaced by its integer."""
    return [str(HUGE_N.get(word, word)) for word in words]


# (argv words, stderr message) of a run for each value the range rule names; the
# table1 F_phase underflow and the qfi F overflow are pinned in their own tests
OUTSIDE = [
    ("qfi --model pdc --gamma 1 --n 1e200 --t 1e-210",
     "F_phase overflows double precision at gamma=1.0 t=1e-210: "
     f"strategy=ghz_free model=pdc n={10**200}"),
    ("sweep --model pdc --gamma 1e-300 --n 1 --c1 1e-160",
     f"F_phase = 1.4713e-320 {BELOW}, at gamma=1e-300: strategy=uncorrelated model=pdc n=1"),
    ("qfi --model dpc --gamma 1 --n 2 --t 1e-160",
     f"F = 4e-320 {BELOW}, at gamma=1.0 t=1e-160: strategy=ghz_free model=dpc n=2"),
    ("table1 --model pdc --gamma 1 --n 1 --t 1e-309",
     f"F/t = 1e-309 {BELOW}, at gamma=1.0 t=1e-309: strategy=ghz_free model=pdc n=1"),
    ("sweep --model pdc --gamma 1e-300 --n 1000000000 --strategy ghz-free",
     "F/t overflows double precision at gamma=1e-300: strategy=ghz_free model=pdc "
     "n=1000000000"),
    ("sweep --model dpc --gamma 5.6e-307 --n 10815:10878 --strategy uncorrelated",
     "F/t overflows double precision at gamma=5.6e-307: strategy=uncorrelated model=dpc "
     "n=10815"),
    # N F/t of one probe overflows from N = 548 on
    ("sweep --model dpc --gamma 5.6e-307 --n 540:560 --strategy uncorrelated",
     "F/t overflows double precision at gamma=5.6e-307: strategy=uncorrelated model=dpc "
     "n=548"),
    ("qfi --model pdc --gamma 1e-300 --t 0.5 --n 1.3e154",
     f"qcrb = 1.1834319526627685e-308 {BELOW}, at gamma=1e-300 n={13 * 10**153} t=0.5"),
    ("sweep --model pdc --gamma 1 --n 9e307 --strategy ghz-free",
     f"t_opt = 5.555555555555554e-309 {BELOW}, at gamma=1.0: strategy=ghz_free model=pdc "
     f"n={int(float(9 * 10**307))}"),
    ("sweep --model adc --gamma 1e-320 --n 1 --c1 0.6",
     "t_opt overflows double precision at gamma=1e-320: strategy=uncorrelated model=adc n=1"),
    ("sweep --model adc --gamma 1 --n 1e305 --strategy ghz-ancilla",
     f"the scan window's lower edge gamma*t = 0.0001/N = 1e-309 {BELOW}, at gamma=1.0: "
     f"strategy=ghz_ancilla model=adc n={int(1e305)}"),
    ("table1 --model dpc --gamma 0 --n 10000 --t 1.5e300",
     "tabulated F/t overflows double precision at gamma=0.0 t=1.5e+300: "
     "strategy=ghz_free model=dpc n=10000"),
    ("qfi --model pdc --gamma 1 --n 1e400 --t 1", f"N overflows double precision at n={10**400}"),
    ("table1 --model pdc --gamma 1 --n 1e400 --t 1",
     f"N overflows double precision at n={10**400}"),
    ("sweep --model pdc --gamma 1 --n 1e400", f"N overflows double precision at n={10**400}"),
]


class TestValuesOutsideTheDoubles:
    """Each value that `channel._check_normal` names, pinned as the whole
    stderr line: exit 3, nothing on stdout, no warning. A batch row at a
    huge N is named from its float N column."""

    @pytest.mark.parametrize("words, message", OUTSIDE, ids=[w for w, _ in OUTSIDE])
    def test_exits_3_naming_the_value(self, words, message, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_capture(_argv(words.split()), capsys)
        assert (code, out, caught) == (3, "", [])
        assert err == f"numerical failure: {message}\n"

    @pytest.mark.parametrize("model", ["adc", "dpc", "pdc"])
    def test_sweep_past_the_f_phase_range_names_it(self, model, capsys):
        # the profile has an interior peak at N = 1e200, where F_phase ~ N^2/e
        # leaves the doubles; the scan used to miss the peak, as log F_phase was +inf
        code, out, err = run_capture(_argv(["sweep", "--model", model, "--gamma", "1",
                                            "--n", "1e200"]), capsys)
        assert (code, out) == (3, "")
        assert err == ("numerical failure: F_phase overflows double precision at gamma=1.0: "
                       f"strategy=ghz_free model={model} n={int(1e200)}\n")


class TestProductPastTheDoubles:
    """4 |c1 c2|^2 N^2 leaves the doubles from N = 1.3e154, though F, F/t and
    F_phase need not: against log space, with log F_phase = 2 log N - 2 N gamma t
    for balanced pdc GHZ probes (block trace 1), and log N - 2 gamma t uncorrelated."""

    N, T = 10**160, 2.5e-159

    def test_qfi(self, capsys):
        code, out, err = run_capture(_argv(
            ["qfi", "--model", "pdc", "--gamma", "1", "--n", "1e160", "--t", str(self.T)]), capsys)
        assert code == 0, err
        row = parse_csv(out)[0]
        log_f = 2.0 * math.log(self.N) - 2.0 * self.N * self.T
        for column, want in (("f_freq", 2.0 * math.log(self.T) + log_f),
                             ("f_over_t", math.log(self.T) + log_f),
                             ("qcrb", -math.log(self.T) - log_f)):
            assert math.isclose(float(row[column]), math.exp(want), rel_tol=1e-12), column

    def test_table1(self, capsys):
        code, out, err = run_capture(_argv(
            ["table1", "--model", "pdc", "--gamma", "1", "--n", "1e160", "--t", str(self.T)]),
            capsys)
        assert code == 0, err
        row = parse_csv(out)[0]
        ghz = math.exp(math.log(self.T) + 2.0 * math.log(self.N) - 2.0 * self.N * self.T)
        assert 4.8e139 < ghz < 4.9e139
        unc = math.exp(math.log(self.T) + math.log(self.N) - 2.0 * self.T)
        for column, want in (("f_ghz_over_t", ghz), ("f_ancilla_over_t", ghz),
                             ("f_uncorrelated_over_t", unc), ("f_ghz_over_t_literal", ghz)):
            assert math.isclose(float(row[column]), want, rel_tol=1e-12), column
        assert row["literal_mismatch"] == "false"


class TestChannel:
    def test_amplitude_damping_snapshot(self, capsys):
        code, out, _ = run_capture(
            ["channel", "--model", "adc", "--gamma", "1", "--t", "0.3"], capsys
        )
        assert code == 0
        row = parse_csv(out)[0]
        g = math.exp(-0.3)
        assert float(row["eta_perp"]) == pytest.approx(math.sqrt(g), rel=1e-15)
        assert float(row["kappa"]) == pytest.approx(g - 1.0, rel=1e-14)
        assert float(row["a_mp"]) == 0.0
        assert row["cptp"] == "true"
        assert float(row["choi_eig_0"]) >= -1e-12

    def test_choi_cells_match_a_numerical_eigensolver(self, capsys):
        # the cells are the closed-form spectrum (`channel._choi_spectrum`),
        # sorted; over a seeded corpus they agree with eigvalsh of the Choi
        # matrix to 1e-15 absolute, which is about 4.5 ulps of 1
        rng = np.random.default_rng(13)
        count = 5000
        models = rng.choice(["adc", "dpc", "pdc"], size=count)
        gammas = 10.0 ** rng.uniform(-3.0, 3.0, size=count)
        times = 10.0 ** rng.uniform(-8.0, 2.0, size=count) / gammas
        times[::500] = 0.0
        cells, matrices = [], []
        for model, gamma, t in zip(models.tolist(), gammas.tolist(), times.tolist()):
            code, out, err = run_capture(
                ["channel", "--model", model, "--gamma", repr(gamma), "--t", repr(t)], capsys
            )
            assert code == 0 and err == ""
            row = parse_csv(out)[0]
            cells.append([float(row[f"choi_eig_{i}"]) for i in range(4)])
            matrices.append(choi_matrix(params_at(getattr(ghzfreq, model)(gamma), t)))
        numeric = np.linalg.eigvalsh(np.stack(matrices))
        assert np.max(np.abs(np.array(cells) - numeric)) <= 1e-15


def _qfi_times(factor, add=0.0):
    """A QfiResult poison: f_freq * factor + add."""
    return lambda r: dataclasses.replace(r, f_freq=r.f_freq * factor + add)


def _add_to_entry(delta):
    """A density-matrix poison: delta added to the (0, 0) entry."""
    return lambda rho: rho + np.array([[delta, 0.0], [0.0, 0.0]])


# check, the verify name patched, the poison that makes the second call's
# value NaN, and the one that moves it just past the check's bound. The
# second: builtin max keeps a NaN that comes first, and drops one after it.
VERIFY_POISONS = {
    "route_agreement": ("qfi_closed", _qfi_times(math.nan), _qfi_times(1.0 + 1.01e-7)),
    "uncorrelated_denominator": ("qfi_closed", _qfi_times(math.nan), _qfi_times(1.0 + 1.01e-7)),
    "tabulated_forms": ("tabulated_f_over_t", lambda lit: math.nan,
                        lambda lit: lit * (1.0 + 1.01e-12)),
    # the min-eigenvalue deviation has no bound, but a NaN in it still fails;
    # the predicate's bound is no disagreement at all
    "cp_boundary": ("choi_min_eigenvalue", lambda e: math.nan, None),
    "master_equation": ("integrate_master_equation", _add_to_entry(math.nan),
                        _add_to_entry(1.01e-6)),
    "directsum_consistency": ("assert_consistency", lambda dev: math.nan,
                              lambda dev: math.nextafter(1e-12, math.inf)),
    # the verdict reads the gap itself, not the flag saturation_check returns
    "readout_saturation": ("saturation_check", lambda r: (*r[:2], math.nan),
                           lambda r: (*r[:2], math.nextafter(1e-8, math.inf))),
    "time_optima": ("maximize_f_over_t", lambda r: (math.nan, r[1]),
                    lambda r: (r[0] * (1.0 + 1.01e-8), r[1])),
    "noiseless_limit": ("qfi_sld_oracle", _qfi_times(math.nan), _qfi_times(1.0, 1.01e-12)),
}


def _poison_second_call(monkeypatch, target, poison):
    """Pass only the second call of verify's `target` through `poison`."""
    from ghzfreq import verify

    real, calls = getattr(verify, target), []

    def patched(*args, **kwargs):
        calls.append(None)
        result = real(*args, **kwargs)
        return poison(result) if len(calls) == 2 else result

    monkeypatch.setattr(verify, target, patched)


class TestVerify:
    @staticmethod
    def _check(name, monkeypatch, target=None, poison=None):
        """verify's check `name` at nmax 2, seed 3, with only the second call
        of `target` passed through `poison`."""
        from ghzfreq import verify

        if target is not None:
            _poison_second_call(monkeypatch, target, poison)
        # `_check_saturation` reports as readout_saturation
        check = getattr(verify, "_check_" + name.removeprefix("readout_"))
        params = inspect.signature(check).parameters
        rng = np.random.default_rng(3)
        result = check(*[{"rng": rng, "nmax": 2}[p] for p in params])
        assert result.name == name
        return result

    @pytest.mark.parametrize("name", VERIFY_POISONS)
    def test_nan_in_one_draw_fails_the_check(self, name, monkeypatch):
        # builtin max(dev, nan) keeps dev, so a fold that used it would pass
        assert self._check(name, monkeypatch).passed
        target, nan, _ = VERIFY_POISONS[name]
        result = self._check(name, monkeypatch, target, nan)
        assert not result.passed
        assert any(math.isnan(value) for _, value, _, _ in result.criteria)
        assert "nan" in result.detail

    def test_nan_residual_fails_the_trace_closure(self, monkeypatch):
        # the residual reaches the verdict through state's residual_mass, so
        # a NaN-skipping sum there would let this draw pass
        def nan_residual(ds):
            return dataclasses.replace(ds, residual=ds.residual * math.nan)

        with np.errstate(invalid="ignore"):  # logaddexp.reduce over the NaN residual
            result = self._check("directsum_consistency", monkeypatch, "evolve_directsum",
                                 nan_residual)
        assert not result.passed
        assert math.isnan(dict((c[0], c[1]) for c in result.criteria)["trace closure"])

    @pytest.mark.parametrize("name", VERIFY_POISONS)
    def test_value_just_past_its_bound_fails_the_check(self, name, monkeypatch):
        target, _, past = VERIFY_POISONS[name]
        if name == "cp_boundary":  # flip the predicate on the second map
            target, past = "is_cptp", lambda ok: not ok
        result = self._check(name, monkeypatch, target, past)
        assert not result.passed
        (label, value, low, high), = [c for c in result.criteria
                                      if not (c[3] is None or c[1] <= c[3])]
        assert high < value <= max(1.02 * high, 1)  # just past, not far past

    def test_bounds_and_their_strictness(self):
        """Each criterion's bounds, pinned; a value at a bound passes and the
        next double past it fails."""
        from ghzfreq.measurement import SATURATION_REL_TOL

        above_1e4 = math.nextafter(1e-4, math.inf)
        want = {
            "route_agreement": [(None, 1e-7)],
            "uncorrelated_denominator": [(None, 1e-7), (above_1e4, None)],
            "tabulated_forms": [(None, 1e-12), (None, 1e-9)],
            "cp_boundary": [(None, 0), (None, None)],
            "master_equation": [(None, 1e-6)],
            "directsum_consistency": [(None, 1e-12), (None, 1e-12), (-1e-12, None),
                                      (None, 1e-12)],
            "readout_saturation": [(None, SATURATION_REL_TOL), (-1e-12, None)],
            "time_optima": [(None, 1e-8), (None, 1e-6), (None, 1e-9)],
            "noiseless_limit": [(None, 1e-12)],
        }
        results = ghzfreq.run_verification(nmax=1, seed=3)
        assert {r.name: [c[2:] for c in r.criteria] for r in results} == want
        for result in results:
            for i, (label, _, low, high) in enumerate(result.criteria):
                for bound, past in ((low, -math.inf), (high, math.inf)):
                    if bound is None:
                        continue
                    for value, passes in ((bound, True), (math.nextafter(bound, past), False)):
                        criteria = list(result.criteria)
                        criteria[i] = (label, value, low, high)
                        assert dataclasses.replace(result, criteria=criteria).passed == passes

    @pytest.mark.parametrize("nmax, message", [
        (0, "nmax must be >= 1, got 0"),
        (11, "nmax 11 would make the dense oracle states huge"),
    ])
    def test_nmax_outside_1_to_10_is_named(self, nmax, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ghzfreq.run_verification(nmax=nmax)

    def test_passes_and_reports(self, capsys):
        code, out, _ = run_capture(["verify", "--nmax", "2"], capsys)
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "checks passed" in out

    def test_json_report(self, capsys):
        code, out, _ = run_capture(["verify", "--nmax", "2", "--format", "json"], capsys)
        assert code == 0
        records = json.loads(out)
        assert all(r["passed"] for r in records)
        names = {r["name"] for r in records}
        assert "route_agreement" in names and "cp_boundary" in names
        code, text, _ = run_capture(["verify", "--nmax", "2"], capsys)
        lines = text.splitlines()
        assert code == 0 and lines[-1] == "9/9 checks passed"
        # a count prints, and is written to JSON, as an integer
        assert "cp_boundary: predicate disagreements in 2000 random maps 0 (<= 0);" in text
        assert records[3]["name"] == "cp_boundary"
        assert type(records[3]["criteria"][0]["value"]) is int
        for record, line in zip(records, lines):
            # each criterion's value lies within its bounds, and the text
            # line reads `label value (<= high)` for it
            assert line == f"[PASS] {record['name']}: {record['detail']}"
            for c, part in zip(record["criteria"], record["detail"].split("; ")):
                assert (c["low"] is None or c["low"] <= c["value"]) and (
                    c["high"] is None or c["value"] <= c["high"])
                bounds = "".join(f" ({sign} {bound!r})" for sign, bound in
                                 ((">=", c["low"]), ("<=", c["high"])) if bound is not None)
                shown = "d" if isinstance(c["value"], int) else ".3e"  # a count as itself
                assert part == f"{c['label']} {c['value']:{shown}}{bounds}"


class TestRepeatedCalls:
    """Consecutive in-process calls share the parser but no parsed state."""

    QFI = ["qfi", "--model", "adc", "--gamma", "1", "--n", "3", "--t", "0.4"]
    CHANNEL = ["channel", "--model", "dpc", "--gamma", "0.7", "--t", "0.2"]

    @pytest.mark.parametrize(
        "first, second",
        [
            (QFI + ["--oracle"], QFI),
            (QFI + ["--format", "json"], QFI),
            (["sweep", "--model", "pdc", "--gamma", "1", "--n", "1:3"], CHANNEL),
        ],
        ids=["oracle-then-plain", "json-then-csv", "sweep-then-channel"],
    )
    def test_earlier_call_leaves_no_trace(self, first, second, capsys):
        code, alone, _ = run_capture(second, capsys)
        assert code == 0
        code, _, _ = run_capture(first, capsys)
        assert code == 0
        code, after, _ = run_capture(second, capsys)
        assert code == 0
        assert after == alone
        assert not any("oracle" in column for column in parse_csv(after)[0])

    def test_usage_errors_in_a_row(self, capsys):
        for _ in range(2):
            code, out, err = run_capture(["qfi", "--model", "adc", "--n", "2"], capsys)
            assert code == 2
            assert out == "" and "required" in err


QFI_POINT = ["--model", "adc", "--gamma", "1", "--n", "2", "--t", "0.5"]
SWEEP_RANGE = ["--model", "adc", "--gamma", "1", "--n", "1:2"]

# (argv, word that names the offending input on stderr)
USAGE_ERRORS = [
    *(([cmd, "--model", "adc", "--gamma", g, "--n", "2", "--t", "0.5"], "gamma")
      for cmd in ("qfi", "table1") for g in ("-1", "nan", "inf")),
    *((["channel", "--model", "dpc", "--gamma", g, "--t", "0.5"], "gamma")
      for g in ("-1", "nan", "inf")),
    *((["sweep", "--model", "pdc", "--gamma", g, "--n", "2"], "gamma")
      for g in ("-1", "nan", "inf", "0")),
    *(([cmd, "--model", "adc", "--gamma", "1", "--n", "2", "--t", t], "t")
      for cmd in ("qfi", "table1") for t in ("0", "-1")),
    (["channel", "--model", "adc", "--gamma", "1", "--t", "-1"], "t"),
    *(([cmd, "--model", "adc", "--gamma", "1", "--n", n, *extra], "probe")
      for cmd, extra in (("qfi", ["--t", "0.5"]), ("table1", ["--t", "0.5"]), ("sweep", []))
      for n in ("0", "x", "3:2", "1:2:3")),
    (["qfi", "--model", "adc", "--gamma", "1", "--n", "2:3", "--t", "0.5"], "probe"),
    (["qfi", *QFI_POINT, "--c1", "1.5"], "c1"),
    (["sweep", *SWEEP_RANGE, "--c1", "1.5"], "c1"),
    (["qfi", *QFI_POINT, "--c2-phase", "inf"], "c2-phase"),
    (["qfi", *QFI_POINT, "--c2-phase", "nan"], "c2-phase"),
    (["qfi", *QFI_POINT, "--omega", "nan"], "omega"),
    (["qfi", *QFI_POINT, "--omega", "-inf"], "omega"),
    (["verify", "--seed", "-1"], "seed"),
    (["verify", "--nmax", "0"], "nmax"),
    (["verify", "--nmax", "11"], "nmax"),
    (["sweep", *SWEEP_RANGE, "--strategy", "ghz-free,nosuch"], "strategy"),
    (["sweep", *SWEEP_RANGE, "--strategy", " , "], "strategy"),
    (["qfi", *QFI_POINT, "--strategy", "ghz-free", "--n-ancillas", "1"], "ancillas"),
    (["qfi", *QFI_POINT, "--strategy", "ghz-ancilla", "--n-ancillas", "0"], "ancillas"),
    (["qfi", "--model", "adc", "--gamma", "1", "--n", "13", "--t", "0.1", "--oracle"], "oracle"),
    (["qfi", "--model", "adc", "--gamma", "1", "--n", "12", "--t", "0.1", "--oracle",
      "--strategy", "ghz-ancilla"], "oracle"),
    (["--spec"], "spec"),
]

# (spec file text, word that names the offending input on stderr)
SPEC_FILE_ERRORS = {
    "no command": (json.dumps({"model": "adc"}), "command"),
    "command not a string": (json.dumps({"command": 3}), "command"),
    "command spelled as a flag": (json.dumps({"command": "--help"}), "command"),
    "list value": (json.dumps({"command": "qfi", "model": ["adc"]}), "model"),
    "null value": (json.dumps({"command": "qfi", "t": None}), "t"),
    "not JSON": ("{'command': 'qfi'}", "JSON"),
}


class TestNegativeFloatFlags:
    """argparse reads an argument as a value only if its negative-number
    matcher (`_negative_number_matcher`, a private attribute) matches it; the
    parser replaces it on every subcommand, so a negative float written with
    an exponent is a value, not a flag."""

    QFI = ["qfi", "--model", "adc", "--gamma", "1", "--n", "2", "--t", "0.5"]

    def test_the_argparse_internal_is_still_there(self):
        assert argparse.ArgumentParser()._negative_number_matcher.match("-1") is not None
        for name, parser in cli._build_parser()._subparsers._group_actions[0].choices.items():
            assert parser._negative_number_matcher.match("-1e-5") is not None, name

    @pytest.mark.parametrize("flag, column", [("--omega", "omega"), ("--c2-phase", "c2_phase")])
    @pytest.mark.parametrize("value", ["-1e-5", "-1.7e308", "-2.5E+3", "-.5e1", "-3."])
    def test_a_separate_negative_value_is_read(self, flag, column, value, capsys):
        code, out, err = run_capture([*self.QFI, flag, value], capsys)
        assert (code, err) == (0, "")
        assert float(parse_csv(out)[0][column]) == float(value)
        code, same, _ = run_capture([*self.QFI, f"{flag}={value}"], capsys)
        assert (code, same) == (0, out)

    def test_a_negative_rate_is_named_by_its_check(self, capsys):
        code, _, err = run_capture(["qfi", *self.QFI[1:3], "--gamma", "-1e-5", *self.QFI[5:]],
                                   capsys)
        assert code == 2
        assert "argument --gamma: need a finite rate >= 0, got -1e-5" in err
        assert "expected one argument" not in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, word", USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in USAGE_ERRORS]
    )
    def test_exit_2_naming_the_input(self, argv, word, capsys):
        code, out, err = run_capture(argv, capsys)
        assert code == 2
        assert out == ""
        assert re.search(rf"\b{word}\b", err, re.IGNORECASE), err

    @pytest.mark.parametrize("name", sorted(SPEC_FILE_ERRORS))
    def test_spec_file_exit_2_naming_the_input(self, name, tmp_path, capsys):
        text, word = SPEC_FILE_ERRORS[name]
        path = tmp_path / "run.json"
        path.write_text(text)
        code, out, err = run_capture(["--spec", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert re.search(rf"\b{word}\b", err), err

    def test_output_into_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run_capture(["sweep", *SWEEP_RANGE, "--output", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert "output" in err and str(target) in err
        assert not target.parent.exists()

    def test_spec_file_with_a_bad_command(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "nosuch", "model": "adc"}))
        code, out, err = run_capture(["--spec", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "command" in err and "nosuch" in err


class TestSpecFile:
    def test_replaces_flags(self, tmp_path, capsys):
        payload = {
            "command": "qfi", "model": "pdc", "gamma": 1.0, "n": 3, "t": 0.1,
            "strategy": "ghz-free", "format": "json",
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_capture(["--spec", str(path)], capsys)
        assert code == 0
        (record,) = json.loads(out)
        assert record["f_over_t"] == pytest.approx(0.1 * 9 * math.exp(-0.6), rel=1e-12)

    def test_matches_flag_invocation_bytewise(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        payload = {
            "command": "sweep", "model": "adc", "gamma": 1.0, "n": "1:2",
            "output": str(a),
        }
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(payload))
        assert run(["--spec", str(spec_path)]) == 0
        assert run(["sweep", "--model", "adc", "--gamma", "1.0", "--n", "1:2",
                    "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("oracle", [True, False])
    def test_boolean_key_is_a_bare_flag(self, oracle, tmp_path, capsys):
        # true gives the bytes of the bare flag, false those of leaving it out
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "qfi", "model": "dpc", "gamma": 1, "n": 2,
                                    "t": 0.3, "oracle": oracle}))
        argv = ["qfi", "--model", "dpc", "--gamma", "1", "--n", "2", "--t", "0.3"]
        code, out, err = run_capture(["--spec", str(path)], capsys)
        assert code == 0 and err == ""
        assert (code, out) == run_capture(argv + ["--oracle"] * oracle, capsys)[:2]
        assert ("oracle_f_freq" in out.splitlines()[0]) is oracle

    def test_missing_file(self, capsys):
        code, _, err = run_capture(["--spec", "/nonexistent/run.json"], capsys)
        assert code == 2 and "spec" in err

    def test_cannot_mix_with_flags(self, capsys):
        code, _, err = run_capture(["qfi", "--spec", "x.json"], capsys)
        assert code == 2 and "replaces" in err

    def test_rejects_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run_capture(["--spec", str(path)], capsys)
        assert code == 2 and out == ""
        assert "spec file" in err

    def test_rejects_non_object_payload(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("[1, 2, 3]")
        code, _, err = run_capture(["--spec", str(path)], capsys)
        assert code == 2


class TestEntryPoint:
    """`python -m ghzfreq` runs the same `main` as the installed console script."""

    def test_console_script_maps_to_main(self):
        text = (ROOT / "pyproject.toml").read_text()
        section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        scripts = dict(
            (part.strip().strip('"') for part in line.split("=", 1))
            for line in section.splitlines() if "=" in line
        )
        assert scripts["ghzfreq"] == "ghzfreq.cli:main"

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ghzfreq", "qfi", "--model", "pdc", "--gamma", "1",
             "--n", "3", "--t", "0.1"],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 0
        assert "f_over_t" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ghzfreq", "qfi", "--model", "nosuch", "--gamma", "1",
             "--n", "1", "--t", "0.1"],
            capture_output=True,
            env=module_env(),
        )
        assert proc.returncode == 2


# Runs each argv of the JSON list in argv[1] through `cli.run` in this one
# process and prints, as JSON, whether numpy's core was loaded after the
# import and after each command, with the command's exit code and stdout.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import ghzfreq.cli
report = {"import": "numpy._core" in sys.modules, "runs": []}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ghzfreq.cli.run(argv)
    report["runs"].append([code, out.getvalue(), "numpy._core" in sys.modules])
print(json.dumps(report))
"""


# One-probe library calls that read their probe record and coherence block
# on floats: the readout at a named model, and a custom map's closed form and
# readout. `CALLS` maps a label to each call.
_FLOAT_CALLS = """
from ghzfreq import (ChannelParams, GhzObservable, ProbeSpec, StrategyKind, adc, custom, dpc,
                     error_propagation_sensitivity, qfi_closed, saturation_check)
rotating = custom(lambda t: ChannelParams(0.4 + 0.3 * t, -0.9, 0.9, 0.0))
CALLS = {
    "saturation_check adc": lambda: saturation_check(ProbeSpec.balanced(3), adc(1.0), 0.2, 0.3),
    "saturation_check dpc ancilla":
        lambda: saturation_check(ProbeSpec.balanced(2, 1), dpc(0.7), 0.4, -1.1),
    "error_propagation_sensitivity adc": lambda: error_propagation_sensitivity(
        ProbeSpec.balanced(3), adc(1.0), 0.2, 0.3, GhzObservable(3, 0.4)),
    "qfi_closed custom":
        lambda: qfi_closed(StrategyKind.GHZ_FREE, ProbeSpec.balanced(3), rotating, 0.2),
    "saturation_check custom": lambda: saturation_check(ProbeSpec.balanced(3), rotating, 0.2, 0.3),
}
"""


def _numpy_probe(argvs):
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=module_env(), check=True)
    return json.loads(proc.stdout)


class TestStartup:
    """The closed-form commands run without loading numpy; the array
    commands load it on their first array operation."""

    SCALAR = [
        ["qfi", "--model", "adc", "--gamma", "1", "--n", "3", "--t", "0.2",
         "--strategy", strategy, "--format", fmt]
        for strategy in ("ghz-free", "ghz-ancilla", "uncorrelated") for fmt in ("csv", "json")
    ] + [
        ["table1", "--model", "dpc", "--gamma", "1", "--n", "1:3", "--t", "0.2"],
        ["channel", "--model", "pdc", "--gamma", "1", "--t", "0.2"],
    ]

    def test_closed_form_commands_leave_numpy_unloaded(self):
        report = _numpy_probe(self.SCALAR)
        assert report["import"] is False
        assert [code for code, _, _ in report["runs"]] == [0] * len(self.SCALAR)
        assert [loaded for _, _, loaded in report["runs"]] == [False] * len(self.SCALAR)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--model", "adc", "--gamma", "1", "--n", "1:3"],
        ["verify", "--nmax", "1"],
        ["qfi", "--model", "dpc", "--gamma", "1", "--n", "2", "--t", "0.3", "--oracle"],
    ], ids=lambda argv: argv[0] + (" --oracle" if "--oracle" in argv else ""))
    def test_array_commands_load_numpy_and_print_the_same_bytes(self, argv, capsys):
        report = _numpy_probe([argv])
        assert report["import"] is False
        ((code, out, loaded),) = report["runs"]
        assert loaded is True
        assert (code, out) == run_capture(argv, capsys)[:2]

    def test_float_calls_leave_numpy_unloaded(self):
        # each call, in a fresh process: its value and whether numpy's core is loaded after it
        code = _FLOAT_CALLS + (
            "import json, sys\n"
            "print(json.dumps([[repr(call()), 'numpy._core' in sys.modules]"
            " for call in CALLS.values()]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=module_env(), check=True)
        scope = {}
        exec(_FLOAT_CALLS, scope)
        want = [[repr(call()), False] for call in scope["CALLS"].values()]
        assert json.loads(proc.stdout) == want

    def test_qfi_range_failures_leave_numpy_unloaded(self):
        # F = t^2 F_phase under- and overflowing, named on the float route
        report = _numpy_probe([
            ["qfi", "--model", "pdc", "--gamma", "8.5e129", "--n", "4", "--t", "1.37e269",
             "--c1", "0.9"],
            ["qfi", "--model", "pdc", "--gamma", "1e-300", "--n", "4", "--t", "1e200",
             "--strategy", "uncorrelated"],
        ])
        assert report["runs"] == [[3, "", False], [3, "", False]]

    def test_float_failures_leave_numpy_unloaded(self):
        # a failing one-probe call names its row from the float record
        code = ("import sys\n"
                "from ghzfreq import ProbeSpec, adc, saturation_check\n"
                "try:\n"
                "    saturation_check(ProbeSpec(1.0, 0.0, 3), adc(1.0), 0.5, 0.0)\n"
                "except ValueError as exc:\n"
                "    print(exc)\n"
                "print('numpy._core' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=module_env(), check=True)
        assert proc.stdout.splitlines() == [
            "quantum Fisher information vanishes; nothing to saturate: "
            "strategy=ghz_free model=adc n=3",
            "False",
        ]

    def test_numpy_imported_after_the_package_works(self):
        code = ("import sys, types, ghzfreq, numpy; from ghzfreq import channel;"
                "assert numpy.arange(3).tolist() == [0, 1, 2];"
                "assert type(numpy) is types.ModuleType;"
                "assert channel.np is numpy is sys.modules['numpy']")
        subprocess.run([sys.executable, "-c", code], env=module_env(), check=True)

    def test_numpy_imported_first_stays_the_module(self):
        code = ("import sys, types, numpy; import ghzfreq; from ghzfreq import channel;"
                "assert sys.modules['numpy'] is numpy and type(numpy) is types.ModuleType;"
                "assert channel.np is numpy")
        subprocess.run([sys.executable, "-c", code], env=module_env(), check=True)
