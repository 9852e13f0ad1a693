"""Perf smoke checks (tier-1): the regressions we refuse to ship.

Full numbers come from ``make perf`` (see ``run_perf.py``); these tests
only assert the properties that must *never* silently regress, with
thresholds generous enough for loaded CI runners:

* a warm process loads the persisted SCL from disk — and does so well
  under the budget that makes per-process re-characterization pointless;
* a single search on a warm SCL stays interactive;
* a full compile **with implementation** (the vectorized layout/DRC/
  routing/synthesis kernels) stays interactive — the regression guard
  for the implement-flow rewrite;
* batch verification of the quickstart macro stays vectorized.
"""

from __future__ import annotations

import gc
import pathlib
import time

import run_perf

#: Generous ceilings (the measured values are ~2.5 ms, ~6 ms and
#: ~0.55 s; the point is catching a return to seconds-per-call, not
#: timing noise on loaded CI runners).
WARM_LOAD_CEILING_S = 2.0
SEARCH_CEILING_S = 2.0
IMPLEMENT_CEILING_S = 3.0
#: Multi-corner contract: a warm 3-corner signoff run costs less than
#: twice a single-corner run (measured ~1.15x; the per-view STA/power
#: caches are what hold this — losing them costs ~3x).
SIGNOFF_RATIO_CEILING = 2.0
#: Batch-verification contract: ``verify_macro`` drives at least this
#: many vectors/second through the quickstart macro (measured
#: 10,200-10,800 on a 2-vCPU container; a scalar, per-vector simulation
#: manages under one).
VECSIM_VECTORS_PER_S_FLOOR = 1000.0


def test_warm_scl_load_smoke(tmp_path: pathlib.Path):
    """Cold build persists the artifact; a second process must resolve
    the library from disk (not rebuild) within the ceiling."""
    cold_s, cold_source, entries = run_perf._timed_scl_process(tmp_path)
    assert cold_source == "built"
    assert entries > 150
    warm_s, warm_source, warm_entries = run_perf._timed_scl_process(tmp_path)
    assert warm_source == "disk", "second process re-characterized the SCL"
    assert warm_entries == entries
    assert warm_s < WARM_LOAD_CEILING_S, (
        f"warm SCL load took {warm_s:.3f}s (ceiling {WARM_LOAD_CEILING_S}s); "
        f"cold build was {cold_s:.3f}s"
    )


def test_single_search_smoke(scl):
    from repro.search.algorithm import MSOSearcher
    from repro.spec import INT4, INT8, MacroSpec

    spec = MacroSpec(
        height=64,
        width=64,
        mcr=2,
        input_formats=(INT4, INT8),
        weight_formats=(INT4, INT8),
        mac_frequency_mhz=800.0,
    )
    searcher = MSOSearcher(scl)
    searcher.search(spec)  # warm the LUT interpolation caches
    t0 = time.perf_counter()
    result = searcher.search(spec)
    elapsed = time.perf_counter() - t0
    assert result.frontier
    assert elapsed < SEARCH_CEILING_S, f"search took {elapsed:.3f}s"


def test_full_implement_smoke(scl):
    """One complete compile with implementation on the quickstart spec
    must stay well under the ceiling — this is the tier-1 guard for the
    vectorized implement-flow kernels (DRC overlap sweep, routing
    reductions, NetView synthesis passes, array shelf packing)."""
    from repro.compiler.syndcim import SynDCIM

    spec = run_perf._quickstart_spec()
    compiler = SynDCIM(scl=scl)
    compiler.compile(spec)  # warm interpolation caches
    gc.collect()
    t0 = time.perf_counter()
    result = SynDCIM(scl=scl).compile(spec)
    elapsed = time.perf_counter() - t0
    impl = result.implementation
    assert impl is not None and impl.signoff_clean
    assert impl.drc.clean and impl.lvs.clean and impl.timing.met
    assert elapsed < IMPLEMENT_CEILING_S, (
        f"full implement took {elapsed:.3f}s (ceiling {IMPLEMENT_CEILING_S}s)"
    )


def test_vecsim_throughput_smoke():
    """The vectorized batch verifier must drive the quickstart macro at
    ``VECSIM_VECTORS_PER_S_FLOOR`` vectors/second or more — and the
    generated netlist must verify clean against the golden model."""
    from repro.arch import MacroArchitecture
    from repro.rtl.gen.macro import generate_macro
    from repro.verify.harness import verify_macro

    spec = run_perf._quickstart_spec()
    arch = MacroArchitecture()
    module, shape = generate_macro(spec, arch)
    flat = module.flatten()
    report = verify_macro(
        spec, arch, netlist=flat, shape=shape, vectors=2048, seed=1
    )
    assert report.passed, report.describe()
    assert report.vectors_per_s >= VECSIM_VECTORS_PER_S_FLOOR, (
        f"vecsim verified only {report.vectors_per_s:.0f} vectors/s "
        f"(floor {VECSIM_VECTORS_PER_S_FLOOR:.0f})"
    )


def test_multi_corner_signoff_smoke(scl):
    """The acceptance contract of the multi-corner subsystem on the
    quickstart spec: the SS/TT/FF compile reports per-corner fmax and
    power, signs off clean at the worst (SS) corner, and a warm-cache
    3-corner run costs less than twice the single-corner run — the
    per-view cache sharing is what keeps the extra corners cheap."""
    from repro.compiler.syndcim import SynDCIM
    from repro.signoff.corners import SIGNOFF3

    spec = run_perf._quickstart_spec()
    # Warm everything both measurements share: interpolation caches,
    # the corner-characterized SCL (disk-cached after the first ever
    # run on a machine) and the result structures.
    SynDCIM(scl=scl).compile(spec)
    SynDCIM(scl=scl, corners=SIGNOFF3).compile(spec)

    # Best-of-2 per side: a single sample flakes on shared CI runners
    # (one GC pause or contention spike inverts the ratio); the min is
    # robust to one-sided spikes without the cost of full medians.
    single_samples, triple_samples = [], []
    single = triple = None
    for _ in range(2):
        gc.collect()
        t0 = time.perf_counter()
        single = SynDCIM(scl=scl).compile(spec)
        single_samples.append(time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        triple = SynDCIM(scl=scl, corners=SIGNOFF3).compile(spec)
        triple_samples.append(time.perf_counter() - t0)
    single_s = min(single_samples)
    triple_s = min(triple_samples)

    impl = triple.implementation
    assert impl is not None and impl.signoff is not None
    report = impl.signoff
    assert {r.corner.name for r in report.results} == {"SS", "TT", "FF"}
    for result in report.results:
        assert result.fmax_mhz > 0.0
        assert result.power.total_mw > 0.0
    # SS is the setup-critical corner and must still meet the clock.
    assert report.worst.corner.name == "SS"
    assert report.corner("SS").met, (
        f"SS corner violated: {report.describe()}"
    )
    assert impl.signoff_clean
    # fmax ordering follows the composed derates: SS < TT < FF.
    assert (
        report.corner("SS").fmax_mhz
        < report.corner("TT").fmax_mhz
        < report.corner("FF").fmax_mhz
    )
    assert single.implementation is not None
    ratio = triple_s / single_s
    assert ratio < SIGNOFF_RATIO_CEILING, (
        f"3-corner signoff cost {ratio:.2f}x a single-corner run "
        f"({triple_s:.3f}s vs {single_s:.3f}s; "
        f"ceiling {SIGNOFF_RATIO_CEILING}x)"
    )
