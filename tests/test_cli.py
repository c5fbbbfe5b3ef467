import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghzfreq
from ghzfreq.cli import run

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

    def test_degenerate_probe_fails_numerically(self, capsys):
        # c1 = 1 has no coherence: F = 0 and the bound diverges
        code, _, err = run_capture(
            ["qfi", "--model", "adc", "--gamma", "1", "--n", "3", "--t", "0.5",
             "--c1", "1.0"],
            capsys,
        )
        assert code == 3 and "non-finite" in err


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

    def test_byte_determinism_across_jobs(self, tmp_path):
        base = ["sweep", "--model", "dpc", "--gamma", "1", "--n", "1:4"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(base + ["--output", str(p1)]) == 0
        assert run(base + ["--jobs", "3", "--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

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
        assert float(row["f_freq"]) == pytest.approx(want, rel=1e-9)
        assert float(row["f_over_t"]) == pytest.approx(want / t, rel=1e-9)

    def test_table1_prints_the_tiny_value(self, capsys):
        code, out, _ = run_capture(
            ["table1", "--model", "dpc", "--gamma", "1", "--n", "2000", "--t", "0.2"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        want = math.exp(log_qfi_dpc_balanced("ghz-free", 2000, 1.0, 0.2)) / 0.2
        want_anc = math.exp(log_qfi_dpc_balanced("ghz-ancilla", 2000, 1.0, 0.2)) / 0.2
        assert float(row["f_ghz_over_t"]) == pytest.approx(want, rel=1e-9)
        assert float(row["f_ancilla_over_t"]) == pytest.approx(want_anc, rel=1e-9)
        assert 9.7e-260 < float(row["f_ghz_over_t"]) < 9.9e-260
        assert float(row["f_ghz_over_t_literal"]) == pytest.approx(2.0 * want, rel=1e-9)
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


class TestVerify:
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

    def test_missing_file(self, capsys):
        code, _, err = run_capture(["--spec", "/nonexistent/run.json"], capsys)
        assert code == 2 and "spec" in err

    def test_cannot_mix_with_flags(self, capsys):
        code, _, err = run_capture(["qfi", "--spec", "x.json"], capsys)
        assert code == 2 and "replaces" in err

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
