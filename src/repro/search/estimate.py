"""Architecture-level macro PPA estimation from the subcircuit library.

This is the searcher's inner evaluation (paper Fig. 5 / Algorithm 1):
given a (spec, architecture) pair it assembles the macro's
register-to-register *timing segments* and its per-cycle energy and area
from SCL lookups — no netlist is built.  The paper's flow works the same
way: the heuristic search prices candidates from the LUTs, and only the
chosen Pareto designs go through synthesis/APR where real STA and power
confirm the numbers.

Segment topology (mirrors :mod:`repro.rtl.gen.macro`):

``inreg -> WL buffer + bitcell read + multiplier + (sub)tree``
then, depending on the pipeline knobs, the combiner / S&A / OFU stages
split into further segments.  Each assembled combinational segment gets
the clocking overhead (launch clock-to-Q + capture setup) added once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from ..arch import MacroArchitecture
from ..spec import DataFormat, MacroSpec
from ..rtl.gen.ofu import ofu_boundaries
from ..scl.builder import tree_variant
from ..scl.library import SubcircuitLibrary
from ..tech.stdcells import VT_FLAVORS

#: Launch clock-to-Q + capture setup of the library DFF (ns).
CLOCK_OVERHEAD_NS = 0.085 + 0.045
#: Pre-layout to post-layout delay derating: the SCL is characterized
#: with a statistical wire-load model; SDP placement adds broadcast and
#: inter-region wires.  Calibrated against implemented 64x64 macros.
WIRE_DERATE = 1.18
#: Post-layout energy derating: routed wire capacitance and the clock
#: network roughly double the cell-intrinsic switching energy the SCL
#: records capture.  Calibrated the same way.
ENERGY_DERATE = 2.2
#: Per-bit register energy (pJ/cycle): internal + clock-pin switching.
DFF_ENERGY_PJ = (2.2 * 0.5 + 0.5 * 0.9 * 0.81 * 2.0) * 1e-3
DFF_AREA_UM2 = 4.6
DFF_LEAK_MW = 6.0 * 1e-6
#: Duty cycle assumed for the weight-update (BL) path during MAC bursts.
BL_WRITE_DUTY = 1.0 / 16.0


@dataclass(frozen=True)
class Segment:
    """One register-to-register timing segment."""

    name: str
    delay_ns: float


@dataclass(frozen=True)
class MacroEstimate:
    """LUT-based PPA estimate of one macro architecture."""

    spec: MacroSpec
    arch: MacroArchitecture
    segments: Tuple[Segment, ...]
    area_um2: float
    energy_per_cycle_pj: float
    leakage_mw: float
    mode_input: DataFormat
    mode_weight: DataFormat

    # cached_property works on frozen dataclasses (it writes straight to
    # __dict__); the repair loop reads these on every escalation step,
    # so the max() over segments runs once per estimate, not per access.
    @cached_property
    def critical_path_ns(self) -> float:
        return max(s.delay_ns for s in self.segments)

    @cached_property
    def critical_segment(self) -> Segment:
        return max(self.segments, key=lambda s: s.delay_ns)

    @property
    def met(self) -> bool:
        return self.critical_path_ns <= self.spec.mac_period_ns + 1e-9

    @property
    def slack_ns(self) -> float:
        return self.spec.mac_period_ns - self.critical_path_ns

    @property
    def power_mw(self) -> float:
        dynamic = (
            self.energy_per_cycle_pj * self.spec.mac_frequency_mhz * 1e-3
        )
        return dynamic + self.leakage_mw

    @property
    def macs_per_cycle(self) -> float:
        """MACs retired per cycle in the estimate's precision mode,
        amortized over the serial phases (native packing: weights occupy
        the next power-of-two column group, as the OFU fuses pairwise)."""
        k = self.mode_input.serial_bits
        wb = 2
        while wb < self.mode_weight.storage_bits:
            wb *= 2
        words = self.spec.width / wb
        return self.spec.height * words / k

    @property
    def tops(self) -> float:
        return 2.0 * self.macs_per_cycle * self.spec.mac_frequency_mhz * 1e-6

    @property
    def tops_per_watt(self) -> float:
        return self.tops / (self.power_mw * 1e-3)

    def describe(self) -> str:
        segs = ", ".join(f"{s.name}={s.delay_ns:.3f}" for s in self.segments)
        return (
            f"{self.arch.knob_summary()}: crit {self.critical_path_ns:.3f} ns "
            f"({'MET' if self.met else 'VIOLATED'}), {self.power_mw:.1f} mW, "
            f"{self.area_um2 / 1e6:.4f} mm^2 [{segs}]"
        )


def estimate_macro(
    spec: MacroSpec,
    arch: MacroArchitecture,
    scl: SubcircuitLibrary,
    mode: Optional[Tuple[DataFormat, DataFormat]] = None,
) -> MacroEstimate:
    """Price one architecture from the subcircuit library.

    The searcher calls this for every candidate it visits, so a call
    only does the work that depends on the architecture: spec-derived
    widths and formats are cached on the spec, and each flavored delay
    or leakage is scaled where it is used.  Every float is computed by
    the same expression, in the same order, as the plain version kept
    in ``tests/reference/estimate.py``, so both agree bit for bit.
    """
    arch.validate_against(spec)
    h, w, mcr = spec.height, spec.width, spec.mcr
    tree_w = spec.tree_sum_width
    acc_w = spec.accumulator_width
    ofu_cols = spec.max_weight_bits
    groups = w // ofu_cols
    fmt_in, fmt_w = mode or spec.widest_formats

    # --- SCL lookups -------------------------------------------------------
    # The SCL is characterized at svt; other flavors re-price every
    # *logic* record's delay and leakage by the flavor's factors (the
    # same laws that derived the cells — see repro.tech.stdcells), which
    # are both 1.0 at svt.  Bitcells and the DFF constants stay svt:
    # registers and arrays are not re-flavored by the vt passes either,
    # so estimate and netlist agree on what scales.
    flavor = VT_FLAVORS[arch.vt]
    df, lf = flavor.delay_factor, flavor.leakage_factor
    wl = scl.lookup("wl_driver", f"drv{arch.driver_strength}", w)
    bl = scl.lookup("bl_driver", f"drv{arch.driver_strength}", h * mcr)
    mm = scl.lookup("mult_mux", arch.mult_style, mcr)
    split = arch.column_split
    sub_n = h // split
    tree = scl.lookup(
        "adder_tree",
        tree_variant(arch.tree_style, arch.tree_fa_levels, arch.carry_reorder),
        sub_n,
    )
    sa = scl.lookup("shift_adder", f"k{spec.input_width}", tree_w)
    sa_delay = sa.delay_ns * df
    if arch.vt != "svt":
        # The S&A record bakes in one clocking overhead; registers do
        # not re-flavor, so back it out of the scaling.
        sa_delay = (sa_delay / df - CLOCK_OVERHEAD_NS) * df + CLOCK_OVERHEAD_NS
    ofu_tag = "csel" if arch.ofu_csel else "rpl"
    ofu = scl.lookup("ofu", f"c{ofu_cols}-{ofu_tag}", acc_w)
    memcell = scl.lookup("memcell", arch.memcell, 1)
    storage = scl.lookup("memcell", "SRAM6T", 1)

    # --- timing segments (wire-derated as they are built) ------------------
    front = (
        wl.delay_ns * df + memcell.delay_ns + mm.delay_ns * df
        + tree.delay_ns * df
    )
    if split > 1:
        sub_tree_w = int(math.floor(math.log2(sub_n))) + 1
        fuse1 = scl.lookup("fuse_stage", "s1-rpl", sub_tree_w)
        combiner_delay = math.log2(split) * (fuse1.delay_ns * df)
        segments = [
            Segment("mac_front", (front + CLOCK_OVERHEAD_NS) * WIRE_DERATE)
        ]
        if arch.reg_after_tree:
            segments.append(Segment(
                "combine", (combiner_delay + CLOCK_OVERHEAD_NS) * WIRE_DERATE
            ))
            segments.append(Segment("sna", sa_delay * WIRE_DERATE))
        else:
            # S&A's record already carries one clocking overhead.
            segments.append(Segment(
                "combine_sna", (combiner_delay + sa_delay) * WIRE_DERATE
            ))
    elif arch.reg_after_tree:
        segments = [
            Segment("mac_front", (front + CLOCK_OVERHEAD_NS) * WIRE_DERATE),
            Segment("sna", sa_delay * WIRE_DERATE),
        ]
    else:
        # S&A's record already includes one clocking overhead.
        segments = [Segment("mac_front_sna", (front + sa_delay) * WIRE_DERATE)]

    # OFU segments: the S&A accumulator register always launches them.
    # Register boundaries follow the same rule the RTL generator uses.
    stage_delays = ofu.stage_delays_ns
    n_stages = len(stage_delays)
    boundaries = [
        b
        for b in ofu_boundaries(
            n_stages, arch.ofu_retimed and arch.reg_after_sna, arch.ofu_pipeline
        )
        if b < n_stages
    ]
    start = 0
    for b in boundaries + [n_stages]:
        if b > start:
            if b - start == n_stages:
                # Unbroken OFU: the characterized end-to-end delay
                # captures the LSB-first overlap between stages.
                delay = ofu.delay_ns * df
            else:
                delay = sum(d * df for d in stage_delays[start:b])
            segments.append(Segment(
                f"ofu_s{start + 1}_{b}",
                (delay + CLOCK_OVERHEAD_NS) * WIRE_DERATE,
            ))
        start = b

    # --- energy / area / leakage, summed in the order listed ---------------
    n_compute = h * w
    n_storage = h * (mcr - 1) * w
    n_trees = w * split
    costs = [
        # Word lines and input registers (per row).
        (wl.energy_pj * h, wl.area_um2 * h, wl.leakage_mw * lf * h),
        # BL drivers at write duty.
        (
            bl.energy_pj * w * BL_WRITE_DUTY,
            bl.area_um2 * w,
            bl.leakage_mw * lf * w,
        ),
        # Bitcells: compute rows + storage banks.
        (
            memcell.energy_pj * n_compute + storage.energy_pj * n_storage,
            memcell.area_um2 * n_compute + storage.area_um2 * n_storage,
            memcell.leakage_mw * n_compute + storage.leakage_mw * n_storage,
        ),
        # Multipliers.
        (mm.energy_pj * h * w, mm.area_um2 * h * w, mm.leakage_mw * lf * h * w),
        # Trees (per column, possibly split).
        (
            tree.energy_pj * n_trees,
            tree.area_um2 * n_trees,
            tree.leakage_mw * lf * n_trees,
        ),
    ]
    if split > 1:
        costs.append(_registers(w * split * sub_tree_w))
        n_comb = w * (split - 1)
        costs.append((
            fuse1.energy_pj * n_comb,
            fuse1.area_um2 * n_comb,
            fuse1.leakage_mw * lf * n_comb,
        ))
    if arch.reg_after_tree:
        costs.append(_registers(w * tree_w))
    # S&A per column.
    costs.append((sa.energy_pj * w, sa.area_um2 * w, sa.leakage_mw * lf * w))
    # OFU input register bank.
    if arch.reg_after_sna:
        costs.append(_registers(w * acc_w))
    # OFU fabric + pipeline registers + output registers.
    costs.append((
        ofu.energy_pj * groups,
        ofu.area_um2 * groups,
        ofu.leakage_mw * lf * groups,
    ))
    out_w = acc_w
    for s in range(1, n_stages + 1):
        out_w = out_w + (1 << (s - 1)) + 1
        if s in boundaries:
            costs.append(_registers(groups * out_w))
    costs.append(_registers(groups * out_w))  # output registers
    # Alignment unit (FP modes only; amortized over the serial phases).
    if fmt_in.is_float:
        align = scl.lookup("alignment", fmt_in.name, h)
        costs.append((
            align.energy_pj / max(fmt_in.serial_bits, 1),
            align.area_um2,
            align.leakage_mw * lf,
        ))
    elif spec.needs_fp:
        # Hardware present but bypassed: area/leakage, no switching.
        widest = max(
            (f for f in spec.input_formats if f.is_float),
            key=lambda f: f.bits,
            default=None,
        )
        if widest is not None:
            align = scl.lookup("alignment", widest.name, h)
            costs.append((0.0, align.area_um2, align.leakage_mw * lf))

    # Mode-dependent activity derating: narrower serial words toggle the
    # same fabric for fewer cycles per MAC but each cycle looks alike;
    # weight-mode does not change per-cycle energy.  (Per-cycle energy is
    # therefore mode-independent except for alignment — matching how the
    # paper reports FP overheads.)
    energy = area = leak = 0.0
    for e_pj, a_um2, l_mw in costs:
        energy += e_pj
        area += a_um2
        leak += l_mw

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


def _registers(bits: int) -> Tuple[float, float, float]:
    """(energy, area, leakage) of a ``bits``-wide register bank."""
    return DFF_ENERGY_PJ * bits, DFF_AREA_UM2 * bits, DFF_LEAK_MW * bits


#: Area divisor converting cell area to floorplan area (matches the SDP
#: placer's achieved utilization).
_UTILIZATION = 0.70

