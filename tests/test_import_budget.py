"""What one ``repro compile`` process imports.

A compile loads only the code it runs: the simulator behind
verification, the Liberty/LEF readers and writers and the shared-memory
transport of the batch workers stay unloaded unless the command asks
for them (``--verify``, ``--lib-in``/``--lib-out``, a pool worker).
Each check runs in a fresh interpreter, as the end-to-end benchmark's
``cli-compile`` does.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

#: Module prefixes a compile without --verify or --lib-* never runs.
UNUSED = (
    "repro.sim",
    "repro.verify.testbench",
    "repro.verify.stimuli",
    "repro.tech.liberty",
    "repro.tech.lef",
    "repro.shm",
)

#: The benchmark's ``cli-compile`` set-up code.
SETUP = (
    "import repro.cli, repro.compiler.syndcim\n"
    "from repro.scl.library import default_scl\n"
    "default_scl()\n"
)

COMPILE = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main({argv!r})
print(out.getvalue(), end="")
"""

REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def _run(code: str):
    """(stdout before the last line, the modules the process loaded)."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out, _, modules = proc.stdout.rstrip("\n").rpartition("\n")
    return out, json.loads(modules)


def _unused(modules):
    return [m for m in modules if m.startswith(UNUSED)]


def _compile(*extra: str):
    argv = ["compile", "--height", "16", "--width", "16", *extra]
    return _run(COMPILE.format(argv=argv))


def test_benchmark_setup_loads_no_unused_module():
    _, modules = _run(SETUP)
    assert "repro.compiler.flow" in modules
    assert _unused(modules) == []


def test_compile_loads_no_unused_module():
    report, modules = _compile()
    assert "implementation of" in report
    assert _unused(modules) == []


def test_verify_loads_the_simulator_and_only_adds_its_report():
    plain, _ = _compile()
    verified, modules = _compile("--verify")
    assert "repro.sim.vecsim" in modules
    head, _, verdict = verified.rpartition("\n\n")
    assert head == plain
    assert verdict.startswith("verification PASS: 4096 vectors on 16x16")
