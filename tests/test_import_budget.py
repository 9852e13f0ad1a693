"""What one ``repro compile`` process, and a thin client, imports.

A compile loads only the code it runs: the simulator behind
verification, the Liberty reader and writer, the Vt passes and the
shared-memory transport of the batch workers stay unloaded unless the
command asks for them (``--verify``, ``--lib-in``/``--lib-out``,
``--vt``, a pool worker).  A client of a remote service
(``repro batch --server``) and the JSONL summarizer load neither numpy
nor the compile flow.
Each check runs in a fresh interpreter, as the end-to-end benchmark's
``cli-compile`` does.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import subprocess
import sys

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

#: Module prefixes a compile without --verify, --lib-* or --vt never runs.
UNUSED = (
    "repro.sim",
    "repro.verify.testbench",
    "repro.verify.stimuli",
    "repro.tech.liberty",
    "repro.synth.vt",
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

#: Runs the CLI, printing its exit code and stderr as the last line
#: but one.
CLIENT = """
import contextlib, io, json
from repro.cli import main
with contextlib.redirect_stderr(io.StringIO()) as err:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main({argv!r})
print(json.dumps([code, err.getvalue()]))
"""

#: What a client of a remote service never runs: the compile flow,
#: the engine, and the generators, layout and library behind them.
COMPILER = (
    "numpy",
    "repro.compiler.flow",
    "repro.compiler.syndcim",
    "repro.batch.engine",
    "repro.rtl",
    "repro.layout",
    "repro.scl",
)

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


def _compiler(modules):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in COMPILER)]


def _closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_remote_batch_client_loads_no_compiler(tmp_path):
    specs = tmp_path / "specs.jsonl"
    specs.write_text(json.dumps(repro.MacroSpec().to_dict()) + "\n")
    argv = ["batch", "--specs", str(specs), "--server", f"http://127.0.0.1:{_closed_port()}"]
    out, modules = _run(CLIENT.format(argv=argv))
    code, err = json.loads(out.rpartition("\n")[2])
    assert code == 1
    assert [line[:6] for line in err.splitlines()] == ["error:"], err
    assert "repro.service.client" in modules
    assert _compiler(modules) == []


def test_summarize_loads_no_compile_flow():
    _, modules = _run("import repro.batch.summarize\n")
    assert "repro.compiler.report" in modules
    assert "repro.compiler.flow" not in modules
