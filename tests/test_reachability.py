"""Every module of the package is reached from an entry point.

A static walk over the source, with the standard library's ``ast`` and
no import of the modules it checks: starting from ``repro``,
``repro.__main__`` and ``repro.cli`` (which reach the HTTP service and
the batch engine), it follows every ``import`` and ``from ... import``,
at module level or inside a function, and every parent package of a
module it reaches.  A module no entry point reaches is code only tests
run; delete it with its tests, or call it from the flow.

The one allowance is ``repro.baselines``: the Table I/II and Fig. 8
benchmarks import the re-implemented competitor compilers directly.

The same walk keeps the scalar oracles out of the package: the
reference implementations shipped code is pinned against live in
``tests/reference/``, so nothing under ``src/repro`` defines a
``*_reference`` function, method or class, or imports ``tests`` or
``reference``.
"""

from __future__ import annotations

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).resolve().parent
ROOTS = ("repro", "repro.__main__", "repro.cli")
ALLOWED = ("repro.baselines",)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    """``{dotted name: (path, is_package)}`` for every source file."""
    found = {}
    for path in PACKAGE.rglob("*.py"):
        parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        found[".".join(parts)] = (path, is_package)
    return found


def _imports(name, path, is_package):
    """Every dotted name one module imports (a ``from X import y`` may
    name the submodule ``X.y``)."""
    package = name if is_package else name.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")[: len(package.split(".")) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module
            names.add(target)
            names.update(f"{target}.{alias.name}" for alias in node.names)
    return names


def _reached(modules):
    seen, todo = set(), list(ROOTS)
    while todo:
        name = todo.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        parts = name.split(".")
        todo.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        todo.extend(_imports(name, *modules[name]))
    return seen


def test_every_module_is_reached_from_an_entry_point():
    modules = _modules()
    assert set(ROOTS) <= set(modules)
    unreached = sorted(
        name
        for name in set(modules) - _reached(modules)
        if not any(name == a or name.startswith(a + ".") for a in ALLOWED)
    )
    assert unreached == [], f"modules no entry point imports: {unreached}"


def test_walk_follows_function_imports_and_reports_an_orphan():
    """``repro.__getattr__`` imports the engine inside a function, and
    the compile flow imports the Vt passes inside a method; a module
    nothing imports stays unreached."""
    modules = _modules()
    modules["repro.rtl.orphan"] = modules["repro.errors"]
    reached = _reached(modules)
    assert {"repro.batch.engine", "repro.synth.vt", "repro.service.server"} <= reached
    assert "repro.rtl.orphan" not in reached


def test_no_reference_implementation_ships():
    modules = _modules()
    shipped = []
    for name, (path, is_package) in sorted(modules.items()):
        tree = ast.parse(path.read_text(), str(path))
        shipped += [
            f"{name}: {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, DEFINITIONS) and node.name.endswith("_reference")
        ]
        shipped += [
            f"{name} imports {target}"
            for target in sorted(_imports(name, path, is_package))
            if target.split(".")[0] in ("tests", "reference")
        ]
    assert shipped == [], f"scalar oracles belong in tests/reference/: {shipped}"
