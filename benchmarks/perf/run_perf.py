#!/usr/bin/env python
"""Performance benchmark harness (``make perf``).

Times the hot paths this repo's throughput hangs on and appends the
numbers to ``benchmarks/results/BENCH_perf.json`` so the perf
trajectory is tracked PR over PR:

``scl_cold_build_s``
    ``default_scl()`` in a fresh process against an empty cache
    directory — full characterization plus the artifact store.
``scl_warm_load_s``
    ``default_scl()`` in a second fresh process against the artifact
    the cold run just wrote (the per-process cost every CLI call,
    pytest session and batch worker actually pays).
``scl_single_vt_warm_load_s`` / ``scl_warm_multivt_ratio``
    the same warm load against the single-Vt library view versus the
    full Vt x drive variant grid.  The grid multiplies the cell count,
    not the subcircuit tables, so the multi-Vt library's contract is
    that its warm load stays under 3x the single-Vt time (guarded by
    ``check_regression.py``).
``search_s``
    one ``MSOSearcher.search()`` on the paper's 64x64 spec (median of
    repeats, warm SCL).
``implement_s`` / ``place_s`` / ``drc_s`` / ``route_s``
    one full ``SynDCIM().compile()`` **with implementation** on the
    quickstart 64x64 spec (median of fresh compiles, warm SCL), plus
    the isolated hot stages of the physical flow on the same netlist —
    the numbers the vectorized layout/DRC/routing kernels moved.
``implement_warm_ms``
    a forced full re-implementation (place, route, DRC, LVS, STA,
    power) of the same architecture inside a warm
    ``ImplementSession`` — the layout arena replays the floorplan
    decision and reuses the routing estimate, so this is the
    incremental-recompile latency.  Floored at 100 ms by the gate.
``vecsim_tiled_vectors_per_s``
    the 4,096-lane ``run_mac`` rate: raw throughput of the vectorized
    simulator on the quickstart netlist (weight loads and golden-model
    checking excluded), counted as driven input vectors clocked
    through the netlist per wall second (lanes x pipeline cycles).
    The key keeps its historical ``tiled`` name; the simulator stores
    one untiled ``(rows, words)`` array.  Floored at 100k
    vector-cycles/s by the gate.
``shm_worker_scl_source`` / ``shm_workers_zero_copy``
    zero-copy worker warmup proof: where each real pool worker's
    default SCL resolved from (``"shm"`` = tensor attach, no disk
    read, no characterization), and whether every worker did.
``sweep_s`` / ``sweep_points`` / ``worker_scl_load_max_s``
    an end-to-end 64-point search sweep through the batch engine's
    process pool with the result cache off — plus the slowest
    per-worker SCL resolution time, which proves workers warm from the
    persistent cache instead of re-characterizing.
``sweep_impl_s`` / ``sweep_impl_points``
    a 16-point **implemented** sweep (search + full physical flow per
    point) through the batch engine — the workload the implement-flow
    kernels exist for.
``signoff3_s`` / ``signoff_single_s`` / ``signoff_corner_ratio``
    one full compile with 3-corner (SS/TT/FF) PVT signoff on the same
    quickstart spec versus a single-corner compile, both measured
    interleaved under identical warm-cache conditions — the
    multi-corner subsystem's contract is that the per-view cache
    sharing keeps the ratio under 2x (guarded by the CI
    perf-regression job; ``signoff_ss_clean`` must also hold).
``vecsim_vectors_per_s`` / ``vecsim_verified_clean``
    batch functional verification of the quickstart macro netlist:
    end-to-end ``verify_macro`` throughput (stimulus generation, weight
    loads, simulation and checking included), floored at half its
    baseline by the gate; the netlist must also verify clean.

Run directly (``python benchmarks/perf/run_perf.py``) or via
``make perf``.  ``--output`` overrides the JSON path; ``--quick`` skips
the sweeps.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
DEFAULT_OUTPUT = HERE.parent / "results" / "BENCH_perf.json"

_TIMED_SCL = """
import time
import repro.scl.builder  # warm the imports; we time the call, not python startup
from repro.scl.library import default_scl, default_scl_source
from repro.tech.stdcells import default_library
default_library()  # warm the cell-library singleton; we time the SCL resolution
t0 = time.perf_counter()
scl = default_scl()
t1 = time.perf_counter()
print(f"{t1 - t0:.6f} {default_scl_source()} {scl.entry_count()}")
"""

_TIMED_SINGLE_VT_SCL = """
import time
import repro.scl.builder  # warm the imports; we time the call, not python startup
from repro.scl.cache import load_cached_scl
from repro.scl.library import default_scl
from repro.tech.process import GENERIC_40NM
from repro.tech.stdcells import single_vt_library
library = single_vt_library()
# default_scl_source() only tracks the default-library path, so probe
# the artifact store directly to classify this run as built vs disk.
source = "disk" if load_cached_scl(library, GENERIC_40NM) else "built"
t0 = time.perf_counter()
scl = default_scl(library=library)
t1 = time.perf_counter()
print(f"{t1 - t0:.6f} {source} {scl.entry_count()}")
"""


def _subprocess_env(cache_dir: pathlib.Path) -> dict:
    env = dict(os.environ)
    env["REPRO_SCL_CACHE"] = str(cache_dir)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _timed_scl_process(cache_dir: pathlib.Path, script: str = _TIMED_SCL) -> tuple:
    """(seconds, source, entries) for default_scl() in a fresh process."""
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=_subprocess_env(cache_dir),
        cwd=REPO_ROOT,
    ).stdout.split()
    return float(out[0]), out[1], int(out[2])


def bench_scl(cache_dir: pathlib.Path) -> dict:
    """Cold build + warm load, each in its own process.

    Also warms and times the single-Vt library view against the same
    cache directory (its artifact key differs, so it gets its own
    cold/warm pair) — the full-grid warm load divided by the single-Vt
    warm load is the multi-Vt library's load-cost ratio.
    """
    cold_s, cold_source, entries = _timed_scl_process(cache_dir)
    assert cold_source == "built", f"expected cold build, got {cold_source}"

    def _best_warm(script: str) -> float:
        """Best of three warm loads — each a fresh process, so the
        minimum is the least-noisy estimate of the real load cost."""
        samples = []
        for _ in range(3):
            s, source, warm_entries = _timed_scl_process(cache_dir, script)
            assert source == "disk", f"expected disk load, got {source}"
            if script is _TIMED_SCL:
                assert warm_entries == entries
            samples.append(s)
        return min(samples)

    warm_s = _best_warm(_TIMED_SCL)
    single_cold_s, single_cold_source, _ = _timed_scl_process(
        cache_dir, _TIMED_SINGLE_VT_SCL
    )
    assert single_cold_source == "built", (
        f"expected single-Vt cold build, got {single_cold_source}"
    )
    single_warm_s = _best_warm(_TIMED_SINGLE_VT_SCL)
    return {
        "scl_cold_build_s": round(cold_s, 4),
        "scl_warm_load_s": round(warm_s, 4),
        "scl_single_vt_warm_load_s": round(single_warm_s, 4),
        "scl_warm_multivt_ratio": round(warm_s / single_warm_s, 4),
        "scl_entries": entries,
    }


def bench_search(repeats: int = 5) -> dict:
    """Single MSO search on the paper's 64x64 spec, warm SCL."""
    from repro.scl.library import default_scl
    from repro.search.algorithm import MSOSearcher
    from repro.spec import FP4, FP8, INT4, INT8, MacroSpec

    spec = MacroSpec(
        height=64,
        width=64,
        mcr=2,
        input_formats=(INT4, INT8, FP4, FP8),
        weight_formats=(INT4, INT8, FP4, FP8),
        mac_frequency_mhz=800.0,
    )
    searcher = MSOSearcher(default_scl())
    samples = []
    candidates = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = searcher.search(spec)
        samples.append(time.perf_counter() - t0)
        candidates = len(result.candidates)
    return {
        "search_s": round(statistics.median(samples), 4),
        "search_candidates": candidates,
    }


def _quickstart_spec():
    from repro.spec import FP4, FP8, INT4, INT8, MacroSpec

    return MacroSpec(
        height=64,
        width=64,
        mcr=2,
        input_formats=(INT4, INT8, FP4, FP8),
        weight_formats=(INT4, INT8, FP4, FP8),
        mac_frequency_mhz=800.0,
    )


def bench_implement(repeats: int = 3) -> dict:
    """Full compile-with-implementation plus isolated physical stages.

    Each repeat runs a fresh ``SynDCIM().compile(spec)`` (only the
    process-wide SCL cache is warm), so ``implement_s`` measures the
    complete quickstart flow: search, RTL generation, flatten,
    synthesis passes, SDP placement, routing, DRC/LVS and post-layout
    STA/power.  A ``gc.collect()`` between repeats keeps prior results
    from inflating later collector pauses (standard timing hygiene).
    """
    from repro.compiler.flow import ImplementSession
    from repro.compiler.syndcim import SynDCIM
    from repro.layout.drc import run_drc
    from repro.layout.route import estimate_routing
    from repro.layout.sdp import place_macro

    spec = _quickstart_spec()
    SynDCIM().compile(spec)  # warm SCL + interpolation caches

    samples = []
    result = None
    for _ in range(repeats):
        gc.collect()
        compiler = SynDCIM()
        t0 = time.perf_counter()
        result = compiler.compile(spec)
        samples.append(time.perf_counter() - t0)
    impl = result.implementation

    # Isolated hot stages on a fresh optimized netlist.
    session = ImplementSession(spec)
    flat, _shape = session.netlist(impl.arch)
    place_samples, drc_samples, route_samples = [], [], []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        placement = place_macro(flat, session.library)
        place_samples.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        estimate_routing(flat, placement, session.library, session.process)
        route_samples.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        report = run_drc(placement)
        drc_samples.append(time.perf_counter() - t0)
        if not report.clean:  # never time a broken layout (-O safe)
            raise RuntimeError(f"DRC regression: {report.describe()}")

    # Warm full re-implementation over the session's layout arena: the
    # first implement() populated the arena and the derived caches;
    # force=True then re-runs every stage (place replay, route reuse,
    # honest DRC/LVS, STA, power) bit-identically.
    cold = session.implement(impl.arch)
    warm_samples = []
    for _ in range(max(repeats * 2, 5)):
        gc.collect()
        t0 = time.perf_counter()
        warm = session.implement(impl.arch, force=True)
        warm_samples.append(time.perf_counter() - t0)
    if warm.min_period_ns != cold.min_period_ns:  # -O safe
        raise RuntimeError("warm re-implement diverged from cold")
    return {
        "implement_s": round(statistics.median(samples), 4),
        "implement_signoff_clean": bool(impl.signoff_clean),
        "implement_cells": int(impl.summary()["cells"]),
        "implement_warm_ms": round(
            statistics.median(warm_samples) * 1e3, 2
        ),
        "place_s": round(statistics.median(place_samples), 4),
        "route_s": round(statistics.median(route_samples), 4),
        "drc_s": round(statistics.median(drc_samples), 4),
    }


def bench_signoff(repeats: int = 3) -> dict:
    """3-corner signoff compile vs the single-corner baseline.

    Both sides are measured here, interleaved under identical warm
    conditions (SCL artifacts resolved, interpolation caches primed) —
    ``implement_s`` from :func:`bench_implement` runs minutes earlier
    under different heap/cache state and is not a valid denominator.
    The acceptance contract: a warm-cache 3-corner run must cost less
    than twice a single-corner run.
    """
    from repro.compiler.syndcim import SynDCIM
    from repro.signoff.corners import SIGNOFF3

    spec = _quickstart_spec()
    SynDCIM().compile(spec)  # warm nominal caches
    SynDCIM(corners=SIGNOFF3).compile(spec)  # warm corner SCL + caches

    single_samples, triple_samples = [], []
    result = None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        SynDCIM().compile(spec)
        single_samples.append(time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        result = SynDCIM(corners=SIGNOFF3).compile(spec)
        triple_samples.append(time.perf_counter() - t0)
    impl = result.implementation
    signoff = impl.signoff
    single_s = statistics.median(single_samples)
    signoff3_s = statistics.median(triple_samples)
    return {
        "signoff_single_s": round(single_s, 4),
        "signoff3_s": round(signoff3_s, 4),
        "signoff_corner_ratio": round(signoff3_s / single_s, 4),
        "signoff_ss_clean": bool(signoff.corner("SS").met),
        "signoff_worst_corner": signoff.worst.corner.name,
        "signoff_ss_fmax_mhz": round(signoff.corner("SS").fmax_mhz, 1),
    }


def bench_vecsim(vectors: int = 4096) -> dict:
    """Vectorized batch verification of the quickstart macro."""
    from repro.arch import MacroArchitecture
    from repro.rtl.gen.macro import generate_macro
    from repro.verify.harness import verify_macro

    spec = _quickstart_spec()
    arch = MacroArchitecture()
    module, shape = generate_macro(spec, arch)
    flat = module.flatten()
    report = verify_macro(
        spec, arch, netlist=flat, shape=shape, vectors=vectors, seed=1
    )

    # The 4,096-lane run_mac rate: run_mac only (no weight loads, no
    # golden model, no mismatch bookkeeping) — the simulator's raw
    # propagate throughput.
    import numpy as np

    from repro.sim.formats import int_range
    from repro.spec import INT8
    from repro.verify.testbench import VecMacroTestbench

    batch = 4096
    tb = VecMacroTestbench(spec, arch, batch=batch, netlist=flat, shape=shape)
    rng = np.random.default_rng(2)
    lo, hi = int_range(INT8.bits)
    tb.load_weights(
        0,
        rng.integers(lo, hi + 1, size=(spec.height, tb.model.n_groups)),
        INT8,
    )
    xs = rng.integers(lo, hi + 1, size=(batch, spec.height))
    tb.run_mac(xs)  # warm the compiled schedule
    # Every clock() consumes one driven input row per lane, and one MAC
    # result costs latency_cycles clocks — so lane-cycles per wall
    # second is the simulator's raw rate (a 4096-lane batch at 12
    # pipeline cycles is 49k simulated vector-cycles per run_mac).
    cycles = batch * shape.latency_cycles
    rate_samples = []
    for _ in range(3):
        gc.collect()
        t0 = time.perf_counter()
        tb.run_mac(xs)
        rate_samples.append(cycles / (time.perf_counter() - t0))
    return {
        "vecsim_vectors": vectors,
        "vecsim_verify_s": round(report.elapsed_s, 4),
        "vecsim_vectors_per_s": round(report.vectors_per_s, 1),
        "vecsim_tiled_vectors_per_s": round(
            statistics.median(rate_samples), 1
        ),
        "vecsim_verified_clean": bool(report.passed),
    }


def bench_implement_sweep(jobs: int = 0) -> dict:
    """16-point implemented sweep through the batch engine."""
    from repro.batch.engine import BatchCompiler
    from repro.batch.sweep import expand_grid, parse_format_sets

    jobs = jobs or min(4, os.cpu_count() or 1)
    specs = expand_grid(
        heights=[8, 16, 32, 64],
        widths=[8, 16],
        mcrs=[2],
        format_sets=parse_format_sets(["INT4,INT8"]),
        frequencies=[400.0, 800.0],
        vdds=[0.9],
    )
    # 4 x 2 x 2 = 16 implemented design points.
    engine = BatchCompiler(jobs=jobs, use_cache=False)
    t0 = time.perf_counter()
    result = engine.compile_specs(specs, implement=True)
    elapsed = time.perf_counter() - t0
    statuses = [r.get("status") for r in result.records]
    return {
        "sweep_impl_points": len(specs),
        "sweep_impl_jobs": jobs,
        "sweep_impl_s": round(elapsed, 4),
        "sweep_impl_point_avg_s": round(elapsed / len(specs), 5),
        "sweep_impl_ok": statuses.count("ok"),
        "sweep_impl_infeasible": statuses.count("infeasible"),
    }


def _worker_scl_source_probe(_arg) -> str:
    """Runs inside a pool worker: where the default SCL resolved from
    (``"shm"`` proves the zero-copy attach beat every fallback)."""
    from repro.scl.library import default_scl, default_scl_source

    default_scl()
    return default_scl_source() or "unresolved"


def bench_shm(jobs: int = 2) -> dict:
    """Zero-copy shared-memory worker warmup on a real pool.

    The engine publishes the sealed SCL tensors before its first worker
    starts; the workers themselves report where their default SCL
    resolved from — the proof has to come from inside the pool, not
    from a parent-side simulation.
    """
    from repro.batch.engine import BatchCompiler

    engine = BatchCompiler(jobs=jobs, use_cache=False)
    sources = engine.map(_worker_scl_source_probe, range(max(jobs, 2)))
    return {
        "shm_worker_scl_source": sources[0] if sources else "unresolved",
        "shm_workers_zero_copy": bool(sources)
        and all(s == "shm" for s in sources),
    }


def _worker_scl_probe(_arg) -> float:
    """Runs inside a pool worker: how long the worker spends resolving
    the default SCL (milliseconds when the cache/initializer did its
    job, about a second if it had to re-characterize)."""
    t0 = time.perf_counter()
    from repro.scl.library import default_scl

    default_scl()
    return time.perf_counter() - t0


def bench_sweep(jobs: int = 0) -> dict:
    """64-point search-only sweep through the batch engine's pool."""
    from repro.batch.engine import BatchCompiler
    from repro.batch.sweep import expand_grid, parse_format_sets

    jobs = jobs or min(4, os.cpu_count() or 1)
    specs = expand_grid(
        heights=[8, 16, 32, 64],
        widths=[8, 16, 32, 64],
        mcrs=[2],
        format_sets=parse_format_sets(["INT4,INT8"]),
        frequencies=[400.0, 800.0],
        vdds=[0.9, 1.1],
    )
    # 4 x 4 x 2 x 2 = 64 design points.
    engine = BatchCompiler(jobs=jobs, use_cache=False)
    probes = engine.map(_worker_scl_probe, range(max(jobs, 2)))
    t0 = time.perf_counter()
    result = engine.compile_specs(specs, implement=False)
    elapsed = time.perf_counter() - t0
    statuses = [r.get("status") for r in result.records]
    return {
        "sweep_points": len(specs),
        "sweep_jobs": jobs,
        "sweep_s": round(elapsed, 4),
        "sweep_point_avg_s": round(elapsed / len(specs), 5),
        "sweep_ok": statuses.count("ok"),
        "sweep_infeasible": statuses.count("infeasible"),
        "worker_scl_load_max_s": round(max(probes), 4) if probes else None,
    }


def collect(quick: bool = False) -> dict:
    metrics: dict = {}
    with tempfile.TemporaryDirectory(prefix="repro-perf-scl-") as tmp:
        metrics.update(bench_scl(pathlib.Path(tmp)))
        metrics.update(bench_search())
        metrics.update(bench_implement())
        metrics.update(bench_signoff())
        metrics.update(bench_vecsim())
        metrics.update(bench_shm())
        if not quick:
            # The sweeps run against the freshly primed temporary cache
            # so worker warmup exercises the disk artifact path.
            os.environ["REPRO_SCL_CACHE"] = tmp
            try:
                metrics.update(bench_sweep())
                metrics.update(bench_implement_sweep())
            finally:
                os.environ.pop("REPRO_SCL_CACHE", None)
    return metrics


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO_ROOT,
        ).stdout.strip()
    except Exception:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=str(DEFAULT_OUTPUT),
        help=f"result JSON (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--quick", action="store_true", help="skip the 64-point sweep"
    )
    args = parser.parse_args(argv)

    metrics = collect(quick=args.quick)
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "revision": _git_revision(),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "metrics": metrics,
    }

    path = pathlib.Path(args.output)
    history = []
    if path.is_file():
        try:
            history = json.loads(path.read_text())
            if not isinstance(history, list):
                history = []
        except ValueError:
            history = []
    history.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(history, indent=2) + "\n")

    width = max(len(k) for k in metrics)
    for key, value in metrics.items():
        print(f"{key:<{width}}  {value}")
    print(f"\nappended to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
