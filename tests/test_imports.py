"""Tooling checks over the package's own source."""

import ast
from pathlib import Path

import rarepath

MODULES = sorted(Path(rarepath.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; a name in ``__all__`` is read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_unused_module_imports():
    unused = {
        path.name: names
        for path in MODULES
        if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os, time\nfrom x import y as z\n__all__ = ['z']\nos.sep\n")
    assert _unused_imports(tree) == ["time (line 1)"]
