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


PACKAGE = "planarize"
MODULES = {path.stem for path in SOURCES}


def _exports():
    """{name: (module, name)} for every name __init__.py imports from a module."""
    init = ast.parse((SOURCES[0].parent / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def _definitions():
    """Every function the package defines, as a key: (module, name), or
    (None, name) for a method, which is named as an attribute of anything."""
    keys = set()

    def visit(node, module, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    keys.add((None if in_class else module, child.name))
            visit(child, module, isinstance(child, ast.ClassDef))

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, False)
    return keys


def _references(paths):
    """Every function a file names, as the key of `_definitions`, each with
    the functions it is named inside, innermost last.  An import names what
    it imports.  A bare name means what the file imports under it, or else
    the function of that name in the file's own module; an attribute of a
    package module (`univar.sub`, `planarize.reduce_map`) means that
    module's function, and any other attribute a method.  So a local
    variable can hide no function of another module."""
    exports = _exports()
    refs = []

    def member(module, name):
        # what `from <module> import name` binds: a package module or a function key
        if module == PACKAGE:
            return name if name in MODULES else exports.get(name)
        return (module, name)

    def module_of(node, bound):
        if isinstance(node, ast.Name):
            target = bound.get(node.id)
            return target if isinstance(target, str) else None
        if isinstance(node, ast.Attribute) and module_of(node.value, bound) == PACKAGE and node.attr in MODULES:
            return node.attr
        return None

    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = path.stem if path in SOURCES else None
        bound = {}  # name -> PACKAGE, a module stem, or a function key
        imported = {}  # id of an import alias -> what it imports
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == PACKAGE:
                        bound[alias.asname or PACKAGE] = parts[-1] if alias.asname and len(parts) > 1 else PACKAGE
            elif isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    module = node.module or PACKAGE
                elif node.level == 0 and (node.module or "").split(".")[0] == PACKAGE:
                    module = node.module.split(".")[-1] if "." in node.module else PACKAGE
                else:
                    continue
                for alias in node.names:
                    target = member(module, alias.name)
                    if target is not None:
                        bound[alias.asname or alias.name] = imported[id(alias)] = target

        def visit(node, inside):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = inside + (node.name,)
            key = None
            if isinstance(node, ast.Name):
                key = bound.get(node.id, (own, node.id) if own else None)
            elif isinstance(node, ast.Attribute):
                module = module_of(node.value, bound)
                key = (None, node.attr) if module is None else member(module, node.attr)
            elif isinstance(node, ast.alias):
                key = imported.get(id(node))
            if isinstance(key, tuple):
                refs.append((key, inside))
            for child in ast.iter_child_nodes(node):
                visit(child, inside)

        visit(tree, ())
    return refs


def test_every_function_is_referenced():
    # a function no code names is dead, such as a helper a deletion left
    # behind; a private one must be named in the package, a public one may
    # be named by the tests or the demos too, and one that only the tests
    # name must be API: listed in planarize.__all__ or named in README.  A
    # function naming itself (recursion) does not count, and names resolve
    # through imports and module attributes (`_references`).
    root = Path(__file__).resolve().parent.parent
    package = _references(SOURCES)
    demos = _references(sorted((root / "demos").glob("*.py")))
    tests = _references(sorted((root / "tests").glob("*.py")))
    init = ast.parse((root / "src" / "planarize" / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        elt.value
        for node in init.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    readme = set(re.findall(r"\w+", (root / "README.md").read_text(encoding="utf-8")))

    def named(key, refs):
        return any(ref == key and key[1] not in inside for ref, inside in refs)

    unreferenced, test_only = [], []
    for key in sorted(_definitions(), key=lambda k: (k[1], k[0] or "")):
        name = key[1]
        label = name if key[0] is None else f"{key[0]}.{name}"
        if named(key, package) or (not name.startswith("_") and named(key, demos)):
            continue
        if name.startswith("_") or not named(key, tests):
            unreferenced.append(label)
        elif name not in exported and name not in readme:
            test_only.append(label)
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
