#!/usr/bin/env python
"""CI perf-regression gate: latest ``make perf`` run vs the baseline.

Compares the newest entry of ``benchmarks/results/BENCH_perf.json``
against the checked-in ``benchmarks/perf/baseline.json`` and fails
(exit 1) when a guarded timing regressed past its tolerance.  The
tolerances are deliberately generous — CI runners are slow, shared and
noisy; the gate exists to catch a *return to seconds-per-call* (an
accidentally disabled cache, a de-vectorized kernel), not 20 % jitter.

Guarded metrics (each ``(name, multiplier)``: fail when
``measured > baseline * multiplier``):

* ``scl_warm_load_s``     — the persistent SCL cache still loads fast;
* ``search_s``            — a single MSO search stays interactive;
* ``implement_s``         — the full implement flow stays interactive;
* ``signoff3_s``          — 3-corner signoff rides the shared caches.

Absolute invariants (not ratios — these hold on any machine):

* ``signoff_corner_ratio`` <= 2.0 — a warm 3-corner run costs less
  than twice a single-corner run (the multi-corner subsystem's
  acceptance contract);
* ``scl_warm_multivt_ratio`` <= 3.0 — the warm ``default_scl()`` load
  with the full Vt x drive variant grid stays under 3x the single-Vt
  warm load (the multi-Vt library's acceptance contract);
* ``signoff_ss_clean`` — the quickstart macro signs off at SS;
* ``vecsim_verified_clean`` — the quickstart netlist verifies clean
  against the golden model, and ``vecsim_vectors_per_s`` (its
  end-to-end ``verify_macro`` throughput) stays above half its
  baseline;
* ``vecsim_tiled_vectors_per_s`` >= 100000 — the 4,096-lane
  ``run_mac`` rate on the quickstart netlist, in lane-cycles/s (the
  key keeps its historical ``tiled`` name);
* ``implement_warm_ms`` <= 100 — a forced full re-implementation in a
  warm ``ImplementSession`` (arena replay + route reuse) stays under
  a tenth of a second (the incremental-recompile contract);
* ``shm_workers_zero_copy`` — every pool worker resolves its SCL from
  the shared-memory attach, not the disk cache or a characterization.

Run after ``make perf``::

    python benchmarks/perf/check_regression.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_RESULTS = HERE.parent / "results" / "BENCH_perf.json"
DEFAULT_BASELINE = HERE / "baseline.json"

#: (metric, allowed multiplier over baseline).  2x across the board:
#: generous enough for loaded CI runners, tight enough that losing a
#: cache or a vectorized kernel (5-100x slowdowns) always trips it.
GUARDED = (
    ("scl_warm_load_s", 2.0),
    ("search_s", 2.0),
    ("implement_s", 2.0),
    ("signoff3_s", 2.0),
)

#: Machine-independent invariants: (metric, max allowed value).
RATIO_CEILINGS = (
    ("signoff_corner_ratio", 2.0),
    ("scl_warm_multivt_ratio", 3.0),
    ("implement_warm_ms", 100.0),
)

#: Machine-independent invariants: (metric, min allowed value).
RATIO_FLOORS = (("vecsim_tiled_vectors_per_s", 100000.0),)

#: Throughput metrics (higher is better): fail when
#: ``measured < baseline / divisor``.
THROUGHPUT_FLOORS = (("vecsim_vectors_per_s", 2.0),)

#: Boolean metrics that must be true.
REQUIRED_TRUE = (
    "implement_signoff_clean",
    "signoff_ss_clean",
    "vecsim_verified_clean",
    "shm_workers_zero_copy",
)


def latest_metrics(results_path: pathlib.Path) -> dict:
    history = json.loads(results_path.read_text())
    if not isinstance(history, list) or not history:
        raise SystemExit(f"error: {results_path} holds no perf entries")
    return history[-1]["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default=str(DEFAULT_RESULTS))
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    args = parser.parse_args(argv)

    metrics = latest_metrics(pathlib.Path(args.results))
    baseline = json.loads(pathlib.Path(args.baseline).read_text())["metrics"]

    failures = []
    lines = []
    for name, mult in GUARDED:
        base = baseline.get(name)
        got = metrics.get(name)
        if base is None or got is None:
            failures.append(f"{name}: missing (baseline={base}, run={got})")
            continue
        limit = base * mult
        verdict = "ok" if got <= limit else "REGRESSED"
        lines.append(
            f"{name:<22} {got:>9.4f}s  baseline {base:.4f}s "
            f"(limit {limit:.4f}s) {verdict}"
        )
        if got > limit:
            failures.append(
                f"{name}: {got:.4f}s > {mult:.1f}x baseline {base:.4f}s"
            )
    for name, ceiling in RATIO_CEILINGS:
        got = metrics.get(name)
        if got is None:
            failures.append(f"{name}: missing from run")
            continue
        verdict = "ok" if got <= ceiling else "REGRESSED"
        lines.append(f"{name:<22} {got:>9.4f}   ceiling {ceiling} {verdict}")
        if got > ceiling:
            failures.append(f"{name}: {got:.4f} > ceiling {ceiling}")
    for name, floor in RATIO_FLOORS:
        got = metrics.get(name)
        if got is None:
            failures.append(f"{name}: missing from run")
            continue
        verdict = "ok" if got >= floor else "REGRESSED"
        lines.append(f"{name:<22} {got:>9.1f}   floor {floor} {verdict}")
        if got < floor:
            failures.append(f"{name}: {got:.1f} < floor {floor}")
    for name, divisor in THROUGHPUT_FLOORS:
        base = baseline.get(name)
        got = metrics.get(name)
        if base is None or got is None:
            failures.append(f"{name}: missing (baseline={base}, run={got})")
            continue
        limit = base / divisor
        verdict = "ok" if got >= limit else "REGRESSED"
        lines.append(
            f"{name:<22} {got:>9.1f}   baseline {base:.1f} "
            f"(floor {limit:.1f}) {verdict}"
        )
        if got < limit:
            failures.append(
                f"{name}: {got:.1f} < baseline {base:.1f} / {divisor:.1f}"
            )
    for name in REQUIRED_TRUE:
        got = metrics.get(name)
        verdict = "ok" if got else "FAILED"
        lines.append(f"{name:<22} {got!s:>9}   {verdict}")
        if not got:
            failures.append(f"{name}: expected true, got {got!r}")

    print("\n".join(lines))
    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
