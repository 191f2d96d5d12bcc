"""The package imports only the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "planarize").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_runtime_imports_are_stdlib_numpy_or_relative(path):
    # numpy is the only runtime dependency; sympy serves tests and the bench only
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    assert found <= allowed, f"{path.name} imports {sorted(found - allowed)}"
