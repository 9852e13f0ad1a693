"""Ablation — structured (SDP) placement vs scattered placement.

DESIGN.md calls out the SDP placer as a design choice worth ablating:
the paper argues APR tools scatter cells and degrade macro performance,
which the structured script avoids.  The ablation compares the SDP
placement against a deterministic pseudo-random scatter of the same
cells in the same outline, measuring wirelength and post-layout timing.
"""

import numpy as np
import pytest

from repro.arch import MacroArchitecture
from repro.compiler.report import format_table
from repro.layout.route import estimate_routing
from repro.layout.sdp import place_macro
from repro.rtl.gen.macro import generate_macro_with_array
from repro.spec import INT4, INT8, MacroSpec
from repro.sta.analysis import minimum_period_ns


def _scatter(flat, placement, library, seed=7):
    """Random legal-ish scatter: same outline, same cell shelf heights,
    random x/row assignment (what an unconstrained placer devolves to
    without datapath guidance)."""
    rng = np.random.default_rng(seed)
    outline = placement.outline
    row_h = 1.8
    n_rows = int(outline.height // row_h)
    names = []
    rows = []
    cursor = [outline.x0] * n_rows
    order = list(flat.instances)
    rng.shuffle(order)
    for inst in order:
        cell = library.cell(inst.cell_name)
        w = cell.width_um or cell.area_um2 / row_h
        for attempt in range(64):
            r = int(rng.integers(0, n_rows))
            if cursor[r] + w <= outline.x1:
                break
        else:  # fall back to the least-filled row
            r = int(np.argmin(cursor))
        x = cursor[r]
        cursor[r] += w
        names.append(inst.name)
        rows.append([x, outline.y0 + r * row_h, x + w, outline.y0 + (r + 1) * row_h])
    import dataclasses

    return dataclasses.replace(placement, names=names, coords=np.array(rows))


@pytest.mark.benchmark(group="ablation")
def test_sdp_vs_scattered_placement(
    benchmark, library, process, save_result
):
    spec = MacroSpec(
        height=32,
        width=32,
        mcr=2,
        input_formats=(INT4, INT8),
        weight_formats=(INT4, INT8),
        mac_frequency_mhz=500.0,
    )
    module, _ = generate_macro_with_array(spec, MacroArchitecture())
    flat = module.flatten()
    sdp = place_macro(flat, library)
    scattered = _scatter(flat, sdp, library)

    rows = []
    results = {}
    for name, pl in (("SDP (structured)", sdp), ("scattered", scattered)):
        route = estimate_routing(flat, pl, library, process)
        period = minimum_period_ns(
            flat, library, wire_load=route.net_caps_ff
        )
        results[name] = (route.total_wirelength_um, period)
        rows.append(
            [
                name,
                round(route.total_wirelength_um / 1e3, 1),
                round(route.congestion, 2),
                round(period, 3),
                round(1e3 / period, 0),
            ]
        )
    table = format_table(
        ["placement", "wirelength_mm", "congestion", "min_period_ns", "fmax_MHz"],
        rows,
    )
    save_result("ablation_sdp_placement", table)

    wl_sdp, t_sdp = results["SDP (structured)"]
    wl_rnd, t_rnd = results["scattered"]
    assert wl_sdp < wl_rnd, "structured placement must shorten wires"
    assert t_sdp < t_rnd, "and the post-layout critical path"

    benchmark(lambda: place_macro(flat, library))
