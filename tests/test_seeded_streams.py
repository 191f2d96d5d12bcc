"""Every seeded stream of the package, found by scanning its source.

A randomized step draws from `stable_rng(seed, label)`.  This test finds each
call, requires its label to be a string literal or an f-string used at one
call site only, and pins the set of labels, so a new seeded check shows up
as a change to this file.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "planarize").glob("*.py"))

#: label (as written, an f-string unparsed) -> module that draws from it
STREAMS = {
    "f'gen:{degree}:{target_dim}'": "cli.py",
    "emit_curves": "cli.py",
    "dual_span_line": "dualize.py",
    "fit_map_validate": "ratfit.py",
}


def _stable_rng_calls():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "stable_rng":
                yield path.name, node


def _label(call: ast.Call) -> ast.expr:
    if len(call.args) >= 2:
        return call.args[1]
    return next(k.value for k in call.keywords if k.arg == "label")


def test_every_seeded_stream_has_its_own_literal_label():
    found = {}
    for module, call in _stable_rng_calls():
        label = _label(call)
        if isinstance(label, ast.Constant) and isinstance(label.value, str):
            text = label.value
        else:
            assert isinstance(label, ast.JoinedStr), f"{module}:{call.lineno}: label is {ast.unparse(label)}"
            text = ast.unparse(label)
        assert text not in found, f"label {text!r} drawn at {found[text]} and {module}:{call.lineno}"
        found[text] = f"{module}:{call.lineno}"
    assert {text: where.split(":")[0] for text, where in found.items()} == STREAMS
