#!/usr/bin/env python3
"""Pin the expected output of every input any seed can draw.

    python3 e2ebench/make_expected.py          # regenerate expected.json
    python3 e2ebench/make_expected.py --check  # compare against it

Generates the file twice, each time in a fresh process with a fresh SCL
cache, and refuses to write unless both are byte-identical.  Contents:

* ``cli``: per ``cli-compile`` input, the ``repro compile`` report (path
  lines dropped, the verification rate masked) and the sha256 of every
  file it writes;
* ``records``: the canonical-record digest (``inputs.canonical``) of all
  1,200 ``dse-sweep`` grid points and of the 216 macros ``service-mix``
  implements, keyed ``search:<spec hash>`` / ``impl:<spec hash>``.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"


def emit(work: pathlib.Path) -> str:
    """The expected file's text, computed in this process."""
    sys.path.insert(0, str(SRC))
    from repro import BatchCompiler

    import inputs

    out_dir = work / "out"
    out_dir.mkdir()
    cli = {}
    for name in sorted(inputs.CLI_INPUTS):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *inputs.cli_argv(name, str(out_dir))],
            capture_output=True, text=True, env=os.environ,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
        cli[name] = {
            "report": inputs.normalize_report(proc.stdout),
            "files": {
                f: inputs.sha256_file(str(out_dir / f)) for f in inputs.CLI_FILES.get(name, ())
            },
        }
    records = {}
    engine = BatchCompiler(jobs=2, use_cache=False)
    for specs, implement in ((inputs.sweep_grid(), False), (inputs.implemented_pool(), True)):
        result = engine.compile_specs(specs, implement=implement)
        for spec, record in zip(specs, result.records):
            if record["status"] not in ("ok", "infeasible") or (implement and record["status"] != "ok"):
                raise SystemExit(f"{spec.describe()}: {record['status']} {record.get('error')}")
            records[inputs.expected_key(spec, implement)] = inputs.canonical(record)
    return json.dumps({"cli": cli, "records": records}, indent=1, sort_keys=True) + "\n"


def generate() -> str:
    texts = []
    for i in range(2):
        work = ROOT / ".bench_tmp" / f"expected-{os.getpid()}-{i}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            REPRO_SCL_CACHE=str(work / "scl"),
            REPRO_CACHE_DIR=str(work / "cache"),
            TMPDIR=str(work),
        )
        env.pop("REPRO_FAULTS", None)
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--emit", str(work)],
                env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                raise SystemExit(proc.stderr)
            texts.append((work / "expected.json").read_text())
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if texts[0] != texts[1]:
        raise SystemExit("two fresh processes disagree; not writing expected.json")
    return texts[0]


def main(argv) -> int:
    if argv[:1] == ["--emit"]:
        work = pathlib.Path(argv[1])
        (work / "expected.json").write_text(emit(work))
        return 0
    text = generate()
    if argv[:1] == ["--check"]:
        same = EXPECTED.read_text() == text
        print("expected.json matches" if same else "expected.json differs")
        return 0 if same else 1
    EXPECTED.write_text(text)
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
