"""Reference copy of ``repro.search.estimate.estimate_macro``.

The estimator as it stood before its per-call work was trimmed (the
pricing a search pays for every candidate), kept verbatim so
``tests/test_estimate_reference.py`` can assert the shipped function
returns exactly the same :class:`MacroEstimate` — every segment delay,
energy, area and leakage bit for bit — for any (spec, architecture, Vt,
mode).  Only the imports differ: absolute, and the constants and result
types come from the shipped module; and the sub-tree row count it
reads, ``MacroArchitecture.subtree_inputs`` until nothing in the
package called it, is the function :func:`subtree_inputs` here.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

from repro.arch import MacroArchitecture
from repro.scl.builder import tree_variant
from repro.scl.library import SubcircuitLibrary
from repro.scl.lut import PPARecord
from repro.search.estimate import (
    BL_WRITE_DUTY,
    CLOCK_OVERHEAD_NS,
    DFF_AREA_UM2,
    DFF_ENERGY_PJ,
    DFF_LEAK_MW,
    ENERGY_DERATE,
    WIRE_DERATE,
    MacroEstimate,
    Segment,
)
from repro.spec import DataFormat, MacroSpec
from repro.tech.stdcells import VT_FLAVORS


def subtree_inputs(arch: MacroArchitecture, spec: MacroSpec) -> int:
    """Rows accumulated by each sub-tree after column splitting."""
    return spec.height // arch.column_split


def estimate_macro(
    spec: MacroSpec,
    arch: MacroArchitecture,
    scl: SubcircuitLibrary,
    mode: Optional[Tuple[DataFormat, DataFormat]] = None,
) -> MacroEstimate:
    """Price one architecture from the subcircuit library."""
    arch.validate_against(spec)
    h, w, mcr = spec.height, spec.width, spec.mcr
    k = spec.input_width
    tree_w = spec.tree_sum_width
    acc_w = spec.accumulator_width
    ofu_cols = spec.max_weight_bits
    groups = w // ofu_cols
    fmt_in, fmt_w = mode or (
        max(spec.input_formats, key=lambda f: f.serial_bits),
        max(spec.weight_formats, key=lambda f: f.storage_bits),
    )

    # --- SCL lookups -------------------------------------------------------
    # The SCL is characterized at svt; other flavors re-price every
    # *logic* record by the flavor's delay/leakage factors (the same
    # laws that derived the cells — see repro.tech.stdcells).  Bitcells
    # and the DFF constants stay svt: registers and arrays are not
    # re-flavored by the vt passes either, so estimate and netlist
    # agree on what scales.
    flavor = VT_FLAVORS[arch.vt]

    def logic(rec: PPARecord) -> PPARecord:
        if arch.vt == "svt":
            return rec
        return dataclasses.replace(
            rec,
            delay_ns=rec.delay_ns * flavor.delay_factor,
            stage_delays_ns=tuple(
                d * flavor.delay_factor for d in rec.stage_delays_ns
            ),
            leakage_mw=rec.leakage_mw * flavor.leakage_factor,
        )

    wl = logic(scl.lookup("wl_driver", f"drv{arch.driver_strength}", w))
    bl = logic(scl.lookup("bl_driver", f"drv{arch.driver_strength}", h * mcr))
    mm = logic(scl.lookup("mult_mux", arch.mult_style, mcr))
    sub_n = subtree_inputs(arch, spec)
    tree = logic(
        scl.lookup(
            "adder_tree",
            tree_variant(
                arch.tree_style, arch.tree_fa_levels, arch.carry_reorder
            ),
            sub_n,
        )
    )
    sub_tree_w = int(math.floor(math.log2(sub_n))) + 1
    sa = logic(scl.lookup("shift_adder", f"k{k}", tree_w))
    if arch.vt != "svt":
        # The S&A record bakes in one clocking overhead; registers do
        # not re-flavor, so back it out of the scaling.
        sa = dataclasses.replace(
            sa,
            delay_ns=(sa.delay_ns / flavor.delay_factor - CLOCK_OVERHEAD_NS)
            * flavor.delay_factor
            + CLOCK_OVERHEAD_NS,
        )
    ofu_tag = "csel" if arch.ofu_csel else "rpl"
    ofu = logic(scl.lookup("ofu", f"c{ofu_cols}-{ofu_tag}", acc_w))
    memcell = scl.lookup("memcell", arch.memcell, 1)
    storage = scl.lookup("memcell", "SRAM6T", 1)

    # --- timing segments ---------------------------------------------------
    segments: List[Segment] = []
    front = wl.delay_ns + memcell.delay_ns + mm.delay_ns + tree.delay_ns

    combiner_delay = 0.0
    if arch.column_split > 1:
        fuse1 = logic(scl.lookup("fuse_stage", "s1-rpl", sub_tree_w))
        combiner_delay = math.log2(arch.column_split) * fuse1.delay_ns
        segments.append(Segment("mac_front", front + CLOCK_OVERHEAD_NS))
        if arch.reg_after_tree:
            segments.append(
                Segment("combine", combiner_delay + CLOCK_OVERHEAD_NS)
            )
            segments.append(Segment("sna", sa.delay_ns))
        else:
            # S&A's record already carries one clocking overhead.
            segments.append(
                Segment("combine_sna", combiner_delay + sa.delay_ns)
            )
    else:
        if arch.reg_after_tree:
            segments.append(Segment("mac_front", front + CLOCK_OVERHEAD_NS))
            segments.append(Segment("sna", sa.delay_ns))
        else:
            # S&A's record already includes one clocking overhead.
            segments.append(Segment("mac_front_sna", front + sa.delay_ns))

    # OFU segments: the S&A accumulator register always launches them.
    # Register boundaries follow the same rule the RTL generator uses.
    from repro.rtl.gen.ofu import ofu_boundaries

    n_stages = len(ofu.stage_delays_ns)
    boundaries = [
        b
        for b in ofu_boundaries(
            n_stages, arch.ofu_retimed and arch.reg_after_sna, arch.ofu_pipeline
        )
        if b < n_stages
    ]

    def stages_delay(stage_indices: List[int]) -> float:
        if len(stage_indices) == n_stages:
            # Unbroken OFU: the characterized end-to-end delay captures
            # the LSB-first overlap between stages.
            return ofu.delay_ns
        return sum(ofu.stage_delays_ns[i] for i in stage_indices)

    start = 0
    for b in boundaries + [n_stages]:
        idx = list(range(start, b))
        if idx:
            segments.append(
                Segment(
                    f"ofu_s{start + 1}_{b}",
                    stages_delay(idx) + CLOCK_OVERHEAD_NS,
                )
            )
        start = b

    segments = [
        Segment(s.name, s.delay_ns * WIRE_DERATE) for s in segments
    ]

    # --- energy / area / leakage -------------------------------------------
    dff = _RegisterCost()
    energy = 0.0
    area = 0.0
    leak = 0.0

    def add(e_pj: float, a_um2: float, l_mw: float) -> None:
        nonlocal energy, area, leak
        energy += e_pj
        area += a_um2
        leak += l_mw

    # Word lines and input registers (per row).
    add(wl.energy_pj * h, wl.area_um2 * h, wl.leakage_mw * h)
    # BL drivers at write duty.
    add(bl.energy_pj * w * BL_WRITE_DUTY, bl.area_um2 * w, bl.leakage_mw * w)
    # Bitcells: compute rows + storage banks.
    n_compute = h * w
    n_storage = h * (mcr - 1) * w
    add(
        memcell.energy_pj * n_compute + storage.energy_pj * n_storage,
        memcell.area_um2 * n_compute + storage.area_um2 * n_storage,
        memcell.leakage_mw * n_compute + storage.leakage_mw * n_storage,
    )
    # Multipliers.
    add(mm.energy_pj * h * w, mm.area_um2 * h * w, mm.leakage_mw * h * w)
    # Trees (per column, possibly split).
    n_trees = w * arch.column_split
    add(tree.energy_pj * n_trees, tree.area_um2 * n_trees, tree.leakage_mw * n_trees)
    if arch.column_split > 1:
        n_regs = w * arch.column_split * sub_tree_w
        dff.add(add, n_regs)
        fuse1 = logic(scl.lookup("fuse_stage", "s1-rpl", sub_tree_w))
        n_comb = w * (arch.column_split - 1)
        add(
            fuse1.energy_pj * n_comb,
            fuse1.area_um2 * n_comb,
            fuse1.leakage_mw * n_comb,
        )
    if arch.reg_after_tree:
        dff.add(add, w * tree_w)
    # S&A per column.
    add(sa.energy_pj * w, sa.area_um2 * w, sa.leakage_mw * w)
    # OFU input register bank.
    if arch.reg_after_sna:
        dff.add(add, w * acc_w)
    # OFU fabric + pipeline registers + output registers.
    add(ofu.energy_pj * groups, ofu.area_um2 * groups, ofu.leakage_mw * groups)
    out_w = acc_w
    for s in range(1, n_stages + 1):
        out_w = out_w + (1 << (s - 1)) + 1
        if s in boundaries:
            dff.add(add, groups * out_w)
    dff.add(add, groups * out_w)  # output registers
    # Alignment unit (FP modes only; amortized over the serial phases).
    if fmt_in.is_float:
        align = logic(scl.lookup("alignment", fmt_in.name, h))
        add(
            align.energy_pj / max(fmt_in.serial_bits, 1),
            align.area_um2,
            align.leakage_mw,
        )
    elif spec.needs_fp:
        # Hardware present but bypassed: area/leakage, no switching.
        widest = max(
            (f for f in spec.input_formats if f.is_float),
            key=lambda f: f.bits,
            default=None,
        )
        if widest is not None:
            align = logic(scl.lookup("alignment", widest.name, h))
            add(0.0, align.area_um2, align.leakage_mw)

    # Mode-dependent activity derating: narrower serial words toggle the
    # same fabric for fewer cycles per MAC but each cycle looks alike;
    # weight-mode does not change per-cycle energy.  (Per-cycle energy is
    # therefore mode-independent except for alignment — matching how the
    # paper reports FP overheads.)

    return MacroEstimate(
        spec=spec,
        arch=arch,
        segments=tuple(segments),
        area_um2=area / _UTILIZATION,
        energy_per_cycle_pj=energy * ENERGY_DERATE,
        leakage_mw=leak,
        mode_input=fmt_in,
        mode_weight=fmt_w,
    )


#: Area divisor converting cell area to floorplan area (matches the SDP
#: placer's achieved utilization).
_UTILIZATION = 0.70


class _RegisterCost:
    """Helper adding register-bank costs uniformly."""

    def add(self, sink, bits: float) -> None:
        sink(DFF_ENERGY_PJ * bits, DFF_AREA_UM2 * bits, DFF_LEAK_MW * bits)
