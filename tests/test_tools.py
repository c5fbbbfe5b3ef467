"""Smoke test of `tools/cli_corpus.py`, the seeded command-line corpus."""

import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_corpus.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("cli_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _corpus(tool, start: int, runs: int) -> str:
    stream = io.StringIO()
    tool.write_corpus(3, start, runs, stream)
    return stream.getvalue()


def test_a_slice_is_deterministic():
    tool = _load_tool()
    first = _corpus(tool, 0, 20)
    assert _corpus(tool, 0, 20) == first
    lines = first.splitlines()
    assert len(lines) == 20
    # a run's argv depends only on (seed, index), so any slice reproduces
    assert _corpus(tool, 12, 8).splitlines() == lines[12:]
    records = [json.loads(line) for line in lines]
    assert {tuple(sorted(r)) for r in records} == {("argv", "exit", "stderr", "stdout")}
    assert {r["argv"][0] for r in records} == {"sweep", "qfi", "table1"}
    assert all(r["exit"] in (0, 2, 3) for r in records)
    assert all("Traceback" not in r["stderr"] for r in records)
    # the runner shows every warning, and no run should raise one
    assert all("Warning" not in r["stderr"] for r in records)


def test_qfi_omega_reaches_the_rotation_overflow():
    tool = _load_tool()
    argvs = [tool.corpus_argv(0, i) for i in range(4000)]
    draws = [("--oracle" in a, float(a[a.index("--omega") + 1])) for a in argvs if a[0] == "qfi"]
    huge = [w for _, w in draws if abs(w) >= 1e300]
    assert 0.02 < len(huge) / len(draws) < 0.1
    oracle = [abs(w) >= 1e300 for flag, w in draws if flag]
    assert 0.1 < sum(oracle) / len(oracle) < 0.5
    assert min(huge) < 0.0 < max(huge) and max(map(abs, huge)) < 1.71e308
    assert all(abs(w) <= 1e3 for _, w in draws if abs(w) < 1e300)


def test_argvs_reach_huge_n_and_a_zero_rate():
    tool = _load_tool()
    argvs = [tool.corpus_argv(0, i) for i in range(4000)]

    def value(argv, flag):
        return argv[argv.index(flag) + 1]

    for command in ("qfi", "table1", "sweep"):
        runs = [a for a in argvs if a[0] == command and "--oracle" not in a]
        firsts = [int(value(a, "--n").split(":")[0]) for a in runs]
        huge = [n for n in firsts if n > 10**12]
        assert 0.02 < len(huge) / len(runs) < 0.1, command
        assert 10**150 <= min(huge) and max(huge) <= 10**400
        assert any(n > 10**308 for n in huge) and any(n < 10**308 for n in huge)
        if command != "sweep":  # a rate beyond the doubles draws any time, never t = 0
            assert all(float(value(a, "--t")) > 0.0 for a in runs)
        zero = [a for a in runs if float(value(a, "--gamma")) == 0.0]
        if command == "sweep":
            assert zero == []
        else:
            assert 0.02 < len(zero) / len(runs) < 0.1, command
            # with no rate to divide by, t is any time
            assert all(0.0 < float(value(a, "--t")) < 1e301 for a in zero)


def _run(argv, code, stdout="", stderr=""):
    return {"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr}


def test_compare_summarizes_two_corpora(tmp_path, capsys):
    tool = _load_tool()
    sweep = ["sweep", "--model", "adc", "--gamma", "1", "--n", "1"]
    header = "n,strategy,t_opt,ratio_r\n"
    old = [
        _run(["qfi", "--n", "1"], 0, "f\n1\n"),
        _run([*sweep, "--c1", "0.6"], 0, header + "1,ghz_free,1.0,0.5\n1,uncorrelated,2.0,1\n"),
        _run([*sweep, "--c1", "0.7"], 0, json.dumps([{"strategy": "ghz_free", "t_opt": 4.0}])),
        _run([*sweep, "--c1", "0.8"], 3, stderr="numerical failure: slope at t=1e-309\n"),
        _run([*sweep, "--c1", "0.9"], 3, stderr="numerical failure: slope at t=2e-309\n"),
        _run([*sweep, "--c1", "1.0"], 0, header + "1,ghz_free,1e-309,1\n"),
    ]
    new = [
        old[0],
        _run(old[1]["argv"], 0, header + "1,ghz_free,1.0,0.5000000001\n1,uncorrelated,2.5,1\n"),
        _run(old[2]["argv"], 0, json.dumps([{"strategy": "ghz_free", "t_opt": 3.0}])),
        _run(old[3]["argv"], 3, stderr="numerical failure: t_opt = 1e-309 underflows\n"),
        _run(old[4]["argv"], 3, stderr="numerical failure: t_opt = 3e-309 underflows\n"),
        _run(old[5]["argv"], 3, stderr="numerical failure: t_opt = 1e-309 underflows\n"),
    ]
    summary = tool.compare(old, new)
    assert summary["runs"] == 6 and summary["identical"] == 1
    assert summary["exit_changes"] == [(" ".join(old[5]["argv"]), 0, 3)]
    assert summary["stderr_changes"] == {
        ("numerical failure: slope at t=#", "numerical failure: t_opt = # underflows"): 2}
    assert summary["layout_changes"] == []
    moves = summary["moves"]
    assert set(moves) == {("sweep", "ratio_r", "ghz_free"), ("sweep", "t_opt", "uncorrelated"),
                          ("sweep", "t_opt", "ghz_free")}
    assert abs(moves["sweep", "ratio_r", "ghz_free"][0] - 2e-10) < 1e-15
    assert moves["sweep", "t_opt", "uncorrelated"][:3] == [0.25, " ".join(old[1]["argv"]), 0.5]
    assert moves["sweep", "t_opt", "ghz_free"][:3] == [0.25, " ".join(old[2]["argv"]), 1.0]

    paths = []
    for name, corpus in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(run) + "\n" for run in corpus))
    assert tool.main(["--compare", *map(str, paths)]) == 1
    report = capsys.readouterr().out
    assert report.startswith("1 of 6 runs identical\n")
    assert "exit-code changes: 1\n  0 -> 3: sweep" in report
    assert "stderr-only changes: 2\n  2 x\n" in report and "e.g." not in report
    assert "sweep t_opt uncorrelated: relative 0.25" in report


def test_compare_shows_a_run_where_only_numbers_moved():
    # the masked messages read alike, so the report adds one run as written
    tool = _load_tool()
    argv = ["sweep", "--model", "adc", "--gamma", "1", "--n", "12345:12349"]
    old = [_run(argv, 3, stderr="numerical failure: F/t overflows at n=12344\n")]
    new = [_run(argv, 3, stderr="numerical failure: F/t overflows at n=12345\n")]
    summary = tool.compare(old, new)
    key = ("numerical failure: F/t overflows at n=#",) * 2
    assert summary["stderr_changes"] == {key: 1}
    assert summary["stderr_examples"] == {key: (" ".join(argv), old[0]["stderr"].strip(),
                                                new[0]["stderr"].strip())}
    stream = io.StringIO()
    tool._report(summary, stream)
    assert (f"  1 x\n    old: {key[0]}\n    new: {key[1]}\n    e.g. {' '.join(argv)}\n"
            "      old: numerical failure: F/t overflows at n=12344\n"
            "      new: numerical failure: F/t overflows at n=12345\n") in stream.getvalue()


def test_compare_groups_table1_rows_by_model():
    tool = _load_tool()
    argv = ["table1", "--model", "dpc", "--gamma", "1", "--n", "2", "--t", "0.3"]
    header = "model,n,f_ghz_over_t\n"
    old = [_run(argv, 0, header + "dpc,2,2.0\n")]
    new = [_run(argv, 0, header + "dpc,2,2.5\n")]
    assert tool.compare(old, new)["moves"] == {
        ("table1", "f_ghz_over_t", "dpc"): [0.25, " ".join(argv), 0.5, " ".join(argv)]}


def test_compare_exit_code_says_whether_every_run_is_identical(tmp_path):
    # the process exit code alone gates a "bytes unchanged" claim
    argv = ["qfi", "--model", "adc", "--gamma", "1", "--n", "2", "--t", "0.3"]
    corpora = {"old": [_run(argv, 0, "f\n1\n")], "same": [_run(argv, 0, "f\n1\n")],
               "moved": [_run(argv, 0, "f\n1.0000000000000002\n")]}
    for name, corpus in corpora.items():
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in corpus))

    def compare(new):
        return subprocess.run([sys.executable, str(TOOL), "--compare", str(tmp_path / "old.jsonl"),
                               str(tmp_path / f"{new}.jsonl")], capture_output=True, text=True)

    same, moved = compare("same"), compare("moved")
    assert (same.returncode, same.stdout.splitlines()[0]) == (0, "1 of 1 runs identical")
    assert (moved.returncode, moved.stdout.splitlines()[0]) == (1, "0 of 1 runs identical")


def test_compare_into_a_closed_stdout_keeps_its_verdict(tmp_path):
    # under `pipefail`, `--compare A A | true` must still say "identical"
    argv = ["qfi", "--model", "adc", "--gamma", "1", "--n", "2", "--t", "0.3"]
    for name, stdout in [("old", "f\n1\n"), ("same", "f\n1\n"), ("moved", "f\n2\n")]:
        (tmp_path / f"{name}.jsonl").write_text(json.dumps(_run(argv, 0, stdout)) + "\n")
    for new, code in [("same", 0), ("moved", 1)]:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, str(TOOL), "--compare", str(tmp_path / "old.jsonl"),
                 str(tmp_path / f"{new}.jsonl")],
                stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (code, "")
