#!/usr/bin/env python3
"""End-to-end benchmark of the SynDCIM reproduction.

    python3 e2ebench/run.py --workload cli-compile --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all --seed 1          # all three, untraced
    python3 e2ebench/run.py --workload dse-sweep --trace 1   # per-layer table

Run from the repository root.  The program is imported from ``src/``;
every run works in a fresh directory under ``.bench_tmp/`` (SCL cache,
result stores, journals, outputs) and deletes it at the end.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics untraced, the
per-layer metrics traced.  README.md defines every name.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import pathlib
import shutil
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment variables that would change what the program does.
_SCRUB = ("REPRO_FAULTS", "REPRO_CACHE_BUDGET_MB", "E2EBENCH_SPANS", "E2EBENCH_OP")


def ref_loop_s() -> float:
    """Best of three timings of a fixed 1M-iteration pure-Python loop,
    taken at the start and the end of every run and printed beside the
    metrics."""
    from child import spin

    return min(spin(1_000_000) for _ in range(3))


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/repro-*"))


def make_ctx(args, work: pathlib.Path, expected: dict):
    from workloads import Ctx

    for sub in ("scl", "cache", "tmp"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in _SCRUB}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_SCL_CACHE=str(work / "scl"),
        REPRO_CACHE_DIR=str(work / "cache"),
        TMPDIR=str(work / "tmp"),
    )
    return Ctx(seed=args.seed, seconds=args.seconds, work=work, env=env, expected=expected)


def run_workload(name: str, args, expected: dict) -> dict:
    from workloads import PY, WORKLOADS, reap

    work = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ctx = make_ctx(args, work, expected)
    before = shm_segments()
    report = {"workload": name, "host_start": ref_loop_s()}
    try:
        # Prime the nominal and signoff3-corner SCLs into this run's fresh
        # cache (the one-time cold build is never inside a timed phase).
        if args.trace:
            import spans

            ctx.spans = work / "spans"
            ctx.spans.mkdir()
        t0 = time.perf_counter()
        proc = ctx.popen([PY, str(HERE / "child.py"), "prime"], op="prime")
        if reap(proc)[0] != 0:
            raise RuntimeError("priming the SCL cache failed")
        report["prime_s"] = time.perf_counter() - t0
        if args.trace:
            # Untraced first, so the overhead compares like with like.
            ctx.spans, spans_dir = None, ctx.spans
            plain = WORKLOADS[name](ctx)
            ctx.spans = spans_dir
            outcome = WORKLOADS[name](ctx)
            report["layers"] = spans.analyze(name, spans_dir, outcome, plain)
        else:
            outcome = WORKLOADS[name](ctx)
    finally:
        for proc in ctx.children:
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        leaked = sorted(shm_segments() - before)
        shutil.rmtree(work, ignore_errors=True)
    report["host_end"] = ref_loop_s()
    report["outcome"] = outcome
    report["leaked"] = leaked
    return report


def print_report(report: dict, args) -> None:
    out = report["outcome"]
    print(f"== {report['workload']}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"   operations attempted {out.attempted}, failed {out.failed}")
    for note in out.notes:
        print(f"   FAILED {note}")
    for leaked in report["leaked"]:
        print(f"   FAILED left a shared-memory segment behind: {leaked}")
    for name, (value, unit) in out.metrics.items():
        print(f"   {name:28s} {value:12.6g} {unit}   (raw {out.raw[name][0]:.6g})")
    for name, (value, unit) in out.extra.items():
        print(f"   {name:28s} {value:12.6g} {unit}   (not gated)")
    print(
        f"   {'host.ref_loop_s':28s} {report['host_start']:12.6g} s at start, "
        f"{report['host_end']:.6g} s at end   (not gated)"
    )
    for kind, readings in out.readings.items():
        print(f"   {'host reading: ' + kind:28s} {statistics.median(readings):12.6g} s median of {len(readings)}")
    if "layers" in report:
        print(report["layers"]["table"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-compile", "dse-sweep", "service-mix", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs
    from workloads import SERVICE_BLOCKS_PER_S, service_blocks

    names = ["cli-compile", "dse-sweep", "service-mix"] if args.workload == "all" else [args.workload]
    if "service-mix" in names and service_blocks(args.seconds) > inputs.max_service_blocks():
        parser.error(
            f"service-mix draws unique misses from the pools pinned in expected.json, which "
            f"cover --seconds {inputs.max_service_blocks() / SERVICE_BLOCKS_PER_S:g} at most"
        )
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)
    reports = [run_workload(name, args, expected) for name in names]
    for report in reports:
        print_report(report, args)
    correct = all(r["outcome"].failed == 0 and not r["leaked"] for r in reports)
    metrics = {}
    for r in reports:
        if args.trace:
            values = dict(r["layers"]["metrics"])
            values["host.ref_loop_s"] = ((r["host_start"] + r["host_end"]) / 2, "s")
        else:
            values = dict(r["outcome"].metrics)
        prefix = f"{r['workload']}/" if len(reports) > 1 else ""
        for k, (v, u) in values.items():
            metrics[prefix + k] = {"value": v, "unit": u}
    result = {
        "correct": correct,
        "attempted": sum(r["outcome"].attempted for r in reports),
        "failed": sum(r["outcome"].failed for r in reports) + sum(len(r["leaked"]) for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
