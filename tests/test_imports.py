"""Source checks: the package imports only the standard library, numpy and itself, uses every name it
imports, raises every exception class and names every function, and README states every size limit."""

import ast
import builtins
import os
import re
import subprocess
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


def test_importing_the_package_leaves_numpy_unloaded():
    # numpy is imported inside the modular and SVD functions only, so a
    # command that reaches neither never loads it
    src = str(SOURCES[0].parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, planarize, planarize.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_the_span_witness_leaves_numpy_unloaded(tmp_path):
    # a cubic into RP^3 (d >= n) is refused by the span witness, which ranks
    # its residue matrix by Bareiss, so classify and dualize never load numpy
    src = str(SOURCES[0].parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    path = tmp_path / "cubic.json"
    gen = ["gen", "--kind", "cubic-rp3", "--seed", "1", "--out", str(path)]
    subprocess.run([sys.executable, "-m", "planarize", *gen], env=env, timeout=60, check=True)
    code = (
        "import sys; from planarize.cli import main; code = main(sys.argv[1:]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    for command in ("classify", "dualize"):
        argv = [command, "--in", str(path), "--out", str(tmp_path / f"{command}.json")]
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60,
                             check=True)
        assert out.stdout.strip() == "2 []", (command, out.stdout, out.stderr)


def test_all_is_exactly_what_the_package_binds():
    # every public name __init__.py imports or assigns is exported, every
    # export is bound there, and each resolves on the package
    import planarize

    init = ast.parse((SOURCES[0].parent / "__init__.py").read_text(encoding="utf-8"))
    bound = set()
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert set(planarize.__all__) == {name for name in bound if not name.startswith("_")}
    assert len(planarize.__all__) == len(set(planarize.__all__))
    for name in planarize.__all__:
        assert getattr(planarize, name) is not None


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=[p.name for p in SOURCES if p.name != "__init__.py"])
def test_every_imported_name_is_used(path):
    # __init__.py imports to re-export; everywhere else an import no code reads is dead
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def test_every_exception_class_is_raised():
    # an exception class no `raise` names is dead: nothing can catch it
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    exceptions: set = set()
    grew = True
    while grew:
        grew = False
        for node in classes:
            bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
            builtin = any(isinstance(getattr(builtins, b, None), type) and issubclass(getattr(builtins, b), BaseException)
                          for b in bases)
            if node.name not in exceptions and (builtin or bases & exceptions):
                exceptions.add(node.name)
                grew = True
    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, (ast.Name, ast.Attribute)):
                    raised.add(target.id if isinstance(target, ast.Name) else target.attr)
    assert exceptions, "no exception classes found"
    assert not exceptions - raised, f"never raised: {sorted(exceptions - raised)}"


def _references(paths):
    """Every name a file reads, as a variable, an attribute or an import,
    each with the functions it is read inside, innermost last."""
    refs = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside + (node.name,)
        if isinstance(node, ast.Name):
            refs.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, inside))
        elif isinstance(node, ast.alias):
            refs.append((node.name, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return refs


def test_every_function_is_referenced():
    # a function no code names is dead, such as a helper a deletion left
    # behind; a private one must be named in the package, a public one may
    # be named by the tests or the demos too, and one that only the tests
    # name must be API: listed in planarize.__all__ or named in README.  A
    # function naming itself (recursion) does not count.
    root = Path(__file__).resolve().parent.parent
    package = _references(SOURCES)
    demos = _references(sorted((root / "demos").glob("*.py")))
    tests = _references(sorted((root / "tests").glob("*.py")))
    defined = {
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    init = ast.parse((root / "src" / "planarize" / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        elt.value
        for node in init.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    readme = set(re.findall(r"\w+", (root / "README.md").read_text(encoding="utf-8")))

    def named(name, refs):
        return any(ref == name and name not in inside for ref, inside in refs)

    unreferenced, test_only = [], []
    for name in sorted(defined):
        if named(name, package) or (not name.startswith("_") and named(name, demos)):
            continue
        if name.startswith("_") or not named(name, tests):
            unreferenced.append(name)
        elif name not in exported and name not in readme:
            test_only.append(name)
    assert not unreferenced, f"functions no code names: {unreferenced}"
    assert not test_only, f"public functions only the tests name, neither in __all__ nor in README: {test_only}"


def test_every_size_limit_is_in_readme_with_its_value():
    # a module-level MAX_* int is a limit a user can run into, so README
    # states it as "`NAME` = value", thousands separated as README writes them
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    limits = {
        node.targets[0].id: node.value.value
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.startswith("MAX_") and isinstance(node.value, ast.Constant)
        and type(node.value.value) is int
    }
    assert limits, "no MAX_* limits found"
    missing = sorted(f"`{name}` = {value:,}" for name, value in limits.items() if f"`{name}` = {value:,}" not in readme)
    assert not missing, f"README does not state: {missing}"
