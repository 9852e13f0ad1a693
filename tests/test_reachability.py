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

Below modules, definitions: every top-level function and class, and
every method but dunders, under ``src/repro`` must be named in code
somewhere in the package, a paper benchmark (``benchmarks/test_*.py``)
or an example (``examples/*.py``).  A method is named by an attribute
(``x.name``) or a ``getattr``/``hasattr``/``setattr`` string.  A
top-level definition is named by a bare name in its own module, by an
import or a module attribute that resolves to it (through re-exports
if need be), or by a lazy-export string (a module's ``__all__`` or
``__getattr__``).  So a same-named variable, parameter, dict key or
docstring elsewhere keeps nothing alive.  A definition only tests call
is deleted with its tests, or moved beside them.
``ALLOWED_DEFINITIONS`` lists the few kept anyway, each with its
reason.
"""

from __future__ import annotations

import ast
import functools
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).resolve().parent
ROOTS = ("repro", "repro.__main__", "repro.cli")
ALLOWED = ("repro.baselines",)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Besides the package, the files whose code may name a definition.
NAMING_GLOBS = ("benchmarks/test_*.py", "examples/*.py")

#: Definitions nothing names but which stay, ``module:qualname`` ->
#: why.
ALLOWED_DEFINITIONS = {
    "repro.service.server:_Handler.do_GET": "BaseHTTPRequestHandler hook",
    "repro.service.server:_Handler.do_POST": "BaseHTTPRequestHandler hook",
    "repro.service.server:_Handler.do_DELETE": "BaseHTTPRequestHandler hook",
    "repro.service.server:_Handler.log_message": "BaseHTTPRequestHandler hook",
    "repro.synth.optimize:sweep_dead_logic": (
        "per-pass entry point the synthesis tests call"
    ),
    "repro.synth.optimize:buffer_high_fanout": (
        "per-pass entry point the synthesis tests call"
    ),
    "repro.sim.vecsim:VecSim.set_bus": (
        "driven by the equivalence tests against reference.gatesim"
    ),
    "repro.sim.vecsim:VecSim.set_bus_int": (
        "driven by the equivalence tests against reference.gatesim"
    ),
    "repro.sim.vecsim:VecSim.bus_int": (
        "read by the equivalence tests against reference.gatesim"
    ),
    "repro.sim.vecsim:VecSim.lanes_snapshot": (
        "read by the equivalence tests against reference.gatesim"
    ),
    "repro.shm.blob:published_segments": (
        "the shm tests' view of what this process published"
    ),
    "repro.shm.blob:detach_all": "the shm tests' cleanup between cases",
    "repro.scl.cache:scl_cache_corruption_count": (
        "the SCL cache tests count quarantined artifacts with it"
    ),
    "repro.tech.stdcells:single_vt_library": (
        "benchmarks/perf/run_perf.py imports it inside a code string"
    ),
}


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


@functools.lru_cache(maxsize=None)
def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _module_of(target, module, level, is_package):
    """The dotted module a ``from`` import in ``module`` names."""
    if not level:
        return target
    parts = module.split(".")
    base = parts[: len(parts) - level + is_package]
    return ".".join(base + ([target] if target else []))


def _imports(name, path, is_package):
    """Every dotted name one module imports (a ``from X import y`` may
    name the submodule ``X.y``)."""
    names = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = _module_of(node.module, name, node.level, is_package)
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
        tree = _parse(path)
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


def _docstrings(tree):
    """ids of the docstring constants in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _is_lazy_export(node):
    """A module's ``__all__`` or its ``__getattr__``."""
    if isinstance(node, ast.FunctionDef):
        return node.name == "__getattr__"
    return isinstance(node, ast.Assign) and any(
        getattr(target, "id", None) == "__all__" for target in node.targets
    )


@functools.lru_cache(maxsize=None)
def _names_in(tree, module="", is_package=False):
    """What the code of ``tree`` (module ``module``, if in the package)
    names, as ``(attributes, bindings, imported)``.

    A method is named by ``attributes``: every ``x.name`` and every
    ``getattr``/``hasattr``/``setattr`` string.  A top-level definition
    is named by ``bindings``, ``(module, name)`` pairs: the bare names
    in its own module, every ``from X import name``, every ``m.name``
    where ``m`` is an imported module, and the identifier strings of a
    module's ``__all__`` and ``__getattr__`` (lazy exports).
    ``imported`` maps each name a ``from`` import binds to its
    ``(module, name)``, which resolves a re-export.  Docstrings and
    comments name nothing."""
    attributes, bindings, imported, modules = set(), set(), {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    modules[head] = head
        elif isinstance(node, ast.ImportFrom):
            source = _module_of(node.module, module, node.level, is_package)
            for alias in node.names:
                bound = alias.asname or alias.name
                imported[bound] = (source, alias.name)
                modules[bound] = f"{source}.{alias.name}"
    bindings.update(imported.values())

    def resolve(node):
        """The dotted module an expression names, if it is one."""
        if isinstance(node, ast.Name):
            return modules.get(node.id)
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            return base and f"{base}.{node.attr}"
        return None

    for node in ast.walk(tree):
        owner = name = None
        if isinstance(node, ast.Name) and module:
            bindings.add((module, node.id))
        elif isinstance(node, ast.Attribute):
            owner, name = node.value, node.attr
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("getattr", "hasattr", "setattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            owner, name = node.args[0], node.args[1].value
        if name is not None:
            attributes.add(name)
            base = resolve(owner)
            if base:
                bindings.add((base, name))
    for node in tree.body if module else ():
        if _is_lazy_export(node):
            docs = _docstrings(node)
            bindings.update(
                (module, c.value)
                for c in ast.walk(node)
                if isinstance(c, ast.Constant)
                and isinstance(c.value, str)
                and c.value.isidentifier()
                and id(c) not in docs
            )
    return frozenset(attributes), frozenset(bindings), imported


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """``(qualname, name, is_method)`` of every top-level function and
    class and every method of a top-level class, dunders excepted."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS) or _dunder(node.name):
            continue
        yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFINITIONS) and not _dunder(member.name):
                    yield f"{node.name}.{member.name}", member.name, True


@functools.lru_cache(maxsize=None)
def _package_trees():
    return {name: _parse(path) for name, (path, _) in _modules().items()}


@functools.lru_cache(maxsize=None)
def _outside_names():
    root = PACKAGE.parents[1]
    paths = [path for pattern in NAMING_GLOBS for path in sorted(root.glob(pattern))]
    assert paths, f"no benchmarks or examples under {root}"
    attributes, bindings = set(), set()
    for path in paths:
        found = _names_in(_parse(path))
        attributes |= found[0]
        bindings |= found[1]
    return frozenset(attributes), frozenset(bindings)


def _unnamed(trees):
    """``module:qualname`` of every definition in ``trees`` that no code
    in ``trees``, the paper benchmarks or the examples names: a method
    by an attribute or a ``getattr`` string, a top-level definition by
    a binding that resolves to it, through re-exports if need be."""
    attributes, bindings = map(set, _outside_names())
    packages = {name: is_package for name, (_, is_package) in _modules().items()}
    imported, defined = {}, {}
    for module, tree in trees.items():
        found = _names_in(tree, module, packages.get(module, False))
        attributes |= found[0]
        bindings |= found[1]
        imported[module] = found[2]
        defined[module] = {name for _, name, method in _definitions(tree) if not method}
    todo = list(bindings)
    while todo:
        module, name = todo.pop()
        source = imported.get(module, {}).get(name)
        if source and name not in defined.get(module, ()) and source not in bindings:
            bindings.add(source)
            todo.append(source)
    return sorted(
        f"{module}:{qualname}"
        for module, tree in trees.items()
        for qualname, name, method in _definitions(tree)
        if (name not in attributes if method else (module, name) not in bindings)
    )


def test_every_definition_is_named():
    unnamed = [d for d in _unnamed(_package_trees()) if d not in ALLOWED_DEFINITIONS]
    assert unnamed == [], (
        f"definitions nothing in src/repro, benchmarks/test_*.py or "
        f"examples/*.py names: {unnamed}"
    )


def test_definition_check_reports_an_orphan():
    """A function nothing calls is reported, also when a docstring
    mentions it or another module has a variable of its name; a method
    is reported when a dict key spells its name.  Naming each in code
    clears it."""
    trees = dict(_package_trees())
    source = _modules()["repro.errors"][0].read_text()
    trees["repro.rtl.orphan"] = ast.parse(
        source + "\n\ndef orphan_helper():\n    return 1\n"
        "\n\nclass Orphan:\n    def orphan_method(self):\n        return 1\n"
    )
    trees["repro.rtl.mention"] = ast.parse(
        '"""See orphan_helper."""\n'
        "orphan_helper = 2\n"
        'TABLE = {"orphan_method": orphan_helper}\n'
    )
    unnamed = _unnamed(trees)
    assert "repro.rtl.orphan:orphan_helper" in unnamed
    assert "repro.rtl.orphan:Orphan.orphan_method" in unnamed
    trees["repro.rtl.mention"] = ast.parse(
        "from .orphan import Orphan, orphan_helper\n"
        "orphan_helper()\n"
        "Orphan().orphan_method()\n"
    )
    unnamed = _unnamed(trees)
    assert "repro.rtl.orphan:orphan_helper" not in unnamed
    assert "repro.rtl.orphan:Orphan.orphan_method" not in unnamed


def test_allowed_definitions_are_current():
    """Each allowance names a definition that exists and that nothing
    names: an entry that outlives its reason goes."""
    assert sorted(ALLOWED_DEFINITIONS) == [
        d for d in _unnamed(_package_trees()) if d in ALLOWED_DEFINITIONS
    ]
