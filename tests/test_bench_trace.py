"""The benchmark's traced worker still finds every hook it wraps.

`bench/tracing.py` looks up each module's `__all__` functions,
`optimize._objective` and `measurement.GhzObservable` by name, so a rename
in the package breaks the traced benchmark run. One traced round of a cheap
and of a sweep workload must report no problems, no failed calls and the
per-layer block.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["points", "sweep-grid"])
def test_traced_round(workload):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-B", "bench/worker.py", "--workload", workload, "--seed", "1",
         "--rounds", "1", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert result["failures"] == []
    assert result["layers"]
