"""Replay a checked-in slice of the command-line corpus, byte for byte.

`data/cli_corpus_seed0.jsonl.gz` holds the first 1000 runs of
`tools/cli_corpus.py --seed 0`: each run's argv, exit code, stdout and
stderr, after a first line that names the Python and numpy versions it was
recorded with. The test runs every argv again in-process and compares all
three. On a mismatch it prints the `--compare` summary of the slice, so the
failure says which runs moved and by how much. Last-digit bits may differ
between builds, so on another Python or numpy the test fails naming the
versions instead of comparing.

A change that moves bytes on purpose re-records the slice and gives the
`--compare` summary in CHANGES.md:

    PYTHONPATH=src python tests/test_corpus.py
"""

import gzip
import importlib.util
import io
import json
import platform
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SLICE = HERE / "data" / "cli_corpus_seed0.jsonl.gz"
TOOL = HERE.parent / "tools" / "cli_corpus.py"
SEED, RUNS = 0, 1000


def _load_tool():
    spec = importlib.util.spec_from_file_location("cli_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def record() -> None:
    """Write the slice from the package on the path."""
    stream = io.StringIO()
    stream.write(json.dumps({**_build(), "seed": SEED, "runs": RUNS}, sort_keys=True) + "\n")
    _load_tool().write_corpus(SEED, 0, RUNS, stream)
    # mtime=0 keeps the file's bytes equal for equal runs
    SLICE.write_bytes(gzip.compress(stream.getvalue().encode(), mtime=0))


def test_replay_matches_the_recorded_slice():
    header, *lines = gzip.decompress(SLICE.read_bytes()).decode().splitlines()
    header = json.loads(header)
    build = _build()
    assert {key: header[key] for key in build} == build, (
        f"the slice was recorded on Python {header['python']} with numpy {header['numpy']}; "
        f"this is Python {build['python']} with numpy {build['numpy']}"
    )
    assert (header["seed"], header["runs"]) == (SEED, RUNS) == (SEED, len(lines))
    tool = _load_tool()
    old = [json.loads(line) for line in lines]
    new = [tool.run_one(run["argv"]) for run in old]
    if new != old:
        report = io.StringIO()
        tool._report(tool.compare(old, new), report)
        raise AssertionError("the replay differs from the recorded slice:\n" + report.getvalue())


if __name__ == "__main__":
    record()
