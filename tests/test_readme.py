"""The README's library example runs against the package as it is.

The python block under `## Library` is executed in-process, so the example
cannot keep a name the package no longer exports, and every name it imports
from `ghzfreq` must be in the package's `__all__`.
"""

import ast
import re
from pathlib import Path

import ghzfreq

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_imports_only_exported_names():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "ghzfreq"
        for alias in node.names
    }
    assert imported, "the example imports nothing from ghzfreq"
    assert imported <= set(ghzfreq.__all__), sorted(imported - set(ghzfreq.__all__))


def test_library_example_runs():
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["ok"], namespace["gap"]
