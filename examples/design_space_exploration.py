#!/usr/bin/env python3
"""Design-space exploration driven by the batch engine.

Expands a (height, frequency) grid with the sweep grammar, pushes it
through :class:`repro.batch.BatchCompiler` — deduplicated, cached under
``~/.cache/repro`` (so the second run is instant), parallel when
``--jobs`` > 1 — and renders the aggregate Pareto/scaling report.  The
sweep runs search-only (``CompileOptions(implement=False)``), so even a
cold run over dozens of points finishes in seconds; pass
``--implement`` for full layouts.  A template-compiler comparison and frontier hypervolume close
the loop against the AutoDCIM baseline.

Run:  python examples/design_space_exploration.py [--jobs N] [--implement]
"""

import argparse

from repro import CompileOptions
from repro.baselines.autodcim import AutoDCIMCompiler
from repro.batch.engine import BatchCompiler
from repro.batch.summarize import summarize
from repro.batch.sweep import expand_grid, grid_summary, parse_axis, parse_format_sets
from repro.compiler.report import format_pareto_ascii, format_table
from repro.scl.library import default_scl
from repro.search.pareto import hypervolume_2d
from repro.spec import INT4, INT8, MacroSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument(
        "--implement", action="store_true",
        help="full layouts instead of search-only estimates",
    )
    args = parser.parse_args()

    # --- the sweep: array sizes x frequency targets ------------------------
    specs = expand_grid(
        heights=parse_axis(["32:128:x2"]),
        widths=[64],
        mcrs=[2],
        format_sets=parse_format_sets(["INT4,INT8"]),
        frequencies=parse_axis(["300", "500:1000:+250"], integer=False),
        vdds=[0.9],
    )
    print(f"sweep: {grid_summary(specs)}")

    engine = BatchCompiler(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=lambda done, total, rec: print(
            f"  [{done}/{total}] {rec['spec_summary']} — {rec['status']}"
            f" ({'cached' if rec.get('cached') else 'compiled'})"
        ),
        options=CompileOptions(implement=args.implement),
    )
    result = engine.compile_specs(specs)
    print(result.stats.cache_line())
    print()
    print(summarize(result.records))

    # --- template-compiler comparison at the paper's operating point -------
    scl = default_scl()
    template = AutoDCIMCompiler(scl)
    rows = []
    for record in result.records:
        spec = MacroSpec.from_dict(record["spec"])
        if spec.height != 64:
            continue
        auto = template.compile(spec)
        selected = record.get("selected")
        rows.append(
            [
                f"{spec.mac_frequency_mhz:.0f} MHz",
                "yes" if record["status"] == "ok" else "no",
                "yes" if auto.meets_timing else "no",
                round(selected["power_mw"], 1) if selected else "-",
            ]
        )
    print("\n64x64 feasibility vs the AutoDCIM template:")
    print(
        format_table(
            ["target", "SynDCIM ok", "template ok", "SynDCIM mW"], rows
        )
    )

    # --- frontier visualization + hypervolume @700 MHz ---------------------
    from repro.search.algorithm import MSOSearcher

    spec = MacroSpec(
        height=64,
        width=64,
        mcr=2,
        input_formats=(INT4, INT8),
        weight_formats=(INT4, INT8),
        mac_frequency_mhz=700.0,
    )
    res = MSOSearcher(scl).search(spec)
    pts = [(e.area_um2 / 1e6, e.power_mw, 0) for e in res.candidates]
    front = [(e.area_um2 / 1e6, e.power_mw, 1) for e in res.frontier]
    print("\ncandidates (o) and frontier (*) @700 MHz:")
    print(format_pareto_ascii(pts + front, "area [mm^2]", "power [mW]"))
    ref = (
        max(p[0] for p in pts) * 1.1,
        max(p[1] for p in pts) * 1.1,
    )
    hv = hypervolume_2d([(p[0], p[1]) for p in front], ref)
    print(f"\nfrontier hypervolume vs reference {ref}: {hv:.3f}")


if __name__ == "__main__":
    main()
