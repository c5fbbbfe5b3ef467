"""Static checks on the package source with the stdlib `ast` module: no import
goes unused, and no module-level private name or UPPERCASE constant is left
without a reader, so a consolidation cannot leave an orphan behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ghzfreq"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _all_names(tree: ast.Module) -> set[str]:
    """The strings of the module's `__all__`, empty if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module) -> set[str]:
    """Every name an import statement of the module binds, `__future__` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _loaded(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _definitions(tree: ast.Module) -> set[str]:
    """The names the module defines at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _private_definitions(tree: ast.Module) -> set[str]:
    """The module-level names starting with one underscore that the module defines."""
    return {n for n in _definitions(tree) if n.startswith("_") and not n.startswith("__")}


def test_the_package_is_parsed():
    assert {"__init__", "channel", "state", "fisher", "measurement", "optimize"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used_or_exported(module):
    tree = MODULES[module]
    unused = _imported(tree) - _loaded(tree) - _all_names(tree)
    assert not unused, f"{module}.py imports {sorted(unused)} without using them"


def test_every_private_name_has_a_reader():
    read_anywhere = set().union(*map(_loaded, MODULES.values()))
    orphans = sorted(
        f"{module}.{name}"
        for module, tree in MODULES.items()
        for name in _private_definitions(tree) - read_anywhere
    )
    assert not orphans, f"module-level private names that nothing reads: {orphans}"


def test_every_constant_is_exported_or_read():
    read_anywhere = set().union(*map(_loaded, MODULES.values()))
    orphans = sorted(
        f"{module}.{name}"
        for module, tree in MODULES.items()
        for name in _definitions(tree) - _all_names(tree) - read_anywhere
        if name.isupper()
    )
    assert not orphans, f"module-level constants that are neither exported nor read: {orphans}"


# The one module that loads numpy; every other module takes `np` from it.
NUMPY_HANDLE = "_numpy"


def _defers_annotations(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.ImportFrom) and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
        for node in tree.body
    )


def _evaluated_at_import(statements):
    """The nodes that run while the module is imported: module-level
    statements and class bodies, with the decorators, default arguments and
    base classes of their definitions, but not function bodies and, under
    `from __future__ import annotations`, not annotations."""
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from node.decorator_list
            yield from node.args.defaults
            yield from (d for d in node.args.kw_defaults if d is not None)
        elif isinstance(node, ast.ClassDef):
            yield from node.decorator_list
            yield from node.bases
            yield from node.keywords
            yield from _evaluated_at_import(node.body)
        elif isinstance(node, ast.AnnAssign):
            yield from (n for n in (node.target, node.value) if n is not None)
        else:
            yield node


@pytest.mark.parametrize("module", sorted(set(MODULES) - {NUMPY_HANDLE}))
def test_numpy_comes_only_through_the_handle(module):
    tree = MODULES[module]
    direct = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
        or isinstance(node, ast.Constant) and node.value == "numpy"
    ]
    assert not direct, f"{module}.py reaches numpy other than through {NUMPY_HANDLE}, lines {direct}"
    if "np" in _loaded(tree):
        assert any(
            isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == NUMPY_HANDLE
            and [alias.name for alias in node.names] == ["np"]
            for node in tree.body
        ), f"{module}.py reads np without `from .{NUMPY_HANDLE} import np`"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_numpy_attribute_is_read_at_import(module):
    # reading np while the module is imported loads numpy, about 0.1 s,
    # even for the commands that never make an array
    tree = MODULES[module]
    if "np" not in _loaded(tree):
        return
    assert _defers_annotations(tree), f"{module}.py evaluates its annotations at import"
    lines = sorted({
        node.lineno
        for top in _evaluated_at_import(tree.body)
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "np" and isinstance(node.ctx, ast.Load)
    })
    assert not lines, f"{module}.py reads np at import time, lines {lines}"
