"""The test suite's own settings: every warning is an error, yet a failing
`hypothesis` example is reported as one failure, not an aborted session.

To report a failing `@given` example, hypothesis's pytest plugin imports
`hypothesis.extra._patching`, which imports libcst, and libcst's use of
`mypy_extensions.TypedDict` raises a DeprecationWarning. Under
`filterwarnings = error` that warning left the plugin's report hook as an
INTERNALERROR: pytest stopped at the first failing example, and the tests
after it never ran. pyproject.toml ignores exactly that message.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TESTS = '''
import warnings

import pytest
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(min_value=0))
def test_fails(x):
    assert x < 5


def test_passes():
    # passes only while every other warning is still an error
    with pytest.raises(DeprecationWarning):
        warnings.warn("a warning of the code under test", DeprecationWarning)
'''


def test_a_failing_example_fails_one_test_and_the_rest_run(tmp_path):
    (tmp_path / "test_example.py").write_text(TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
