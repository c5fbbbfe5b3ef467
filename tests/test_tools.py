"""Smoke test of `tools/cli_corpus.py`, the seeded command-line corpus."""

import importlib.util
import io
import json
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
    assert {r["argv"][0] for r in records} == {"sweep", "qfi"}
    assert all(r["exit"] in (0, 2, 3) for r in records)
    assert all("Traceback" not in r["stderr"] for r in records)
