"""Every float tolerance of the package, found by scanning its source.

A float-mode decision compares a margin against a module-level constant
named `*_RTOL` (relative) or `*_ATOL` (absolute).  This test finds each such
assignment and pins the set, so adding or dropping a float tolerance shows
up as a change to this file.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "planarize").glob("*.py"))

#: tolerance name -> module that defines it
TOLERANCES = {
    "FLOAT_RANK_RTOL": "projcore.py",
    "DEGENERACY_RTOL": "jetplan.py",
    "CONTAINMENT_RTOL": "jetplan.py",
    "NODE_ATOL": "jetplan.py",
    "SPACING_RTOL": "jetplan.py",
    "SPHERE_RTOL": "conicweb.py",
}


def _module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def test_every_float_tolerance_is_pinned():
    found = {}
    for path in SOURCES:
        for name, node in _module_level_names(ast.parse(path.read_text(encoding="utf-8"))):
            if not name.endswith(("_RTOL", "_ATOL")):
                continue
            assert name not in found, f"{name} defined in {found[name]} and {path.name}"
            value = node.value
            assert isinstance(value, ast.Constant) and isinstance(value.value, float), (
                f"{path.name}:{node.lineno}: {name} is not a float literal"
            )
            found[name] = path.name
    assert found == TOLERANCES
