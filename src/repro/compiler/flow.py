"""Implementation and evaluation flow (paper Fig. 6).

Takes one (spec, architecture) pair through the standard digital flow
the paper describes: RTL generation, synthesis (elaboration +
flattening), structured-data-path placement, routing estimation, DRC and
LVS verification, then *post-layout* STA and power with the extracted
wire loads.  The result bundles every artifact a signoff engineer would
expect: Verilog netlist, placement, GDS stream, timing and power
reports, and the summary PPA numbers the benchmarks consume.

:class:`ImplementSession` is the incremental entry point used by the
compiler's timing-escalation loop: one session per spec caches the
artifacts that survive an architecture change — the bitcell array
module (with its primed flatten template), the optimized flat netlist
per architecture, and the finished :class:`Implementation` per
architecture — so re-implementing after a timing fix rebuilds only what
the fix actually touched instead of re-running the whole flow from RTL
generation.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..arch import MacroArchitecture
from ..errors import LayoutError
from ..layout.drc import DRCReport, run_drc
from ..layout.gds import write_gds_json
from ..layout.lvs import LVSReport, run_lvs
from ..layout.arena import LayoutArena
from ..layout.route import RoutingEstimate
from ..layout.sdp import Placement
from ..power.estimator import PowerReport, estimate_power, sparsity_input_stats
from ..rtl.gen.macro import MacroShape, generate_macro_with_array
from ..rtl.ir import Module
from ..rtl.verilog import emit_verilog
from ..signoff.corners import CornerSet
from ..signoff.evaluate import SignoffReport, multi_corner_signoff
from ..spec import MacroSpec
from ..sta.analysis import TimingReport, analyze, minimum_period_ns
from ..tech.process import GENERIC_40NM, Process
from ..tech.stdcells import StdCellLibrary, default_library
from ..verify.harness import (
    DEFAULT_VECTORS,
    VerificationReport,
    verify_macro,
)


@dataclass
class Implementation:
    """Everything produced by one run of the implementation flow."""

    spec: MacroSpec
    arch: MacroArchitecture
    shape: MacroShape
    netlist: Module
    placement: Placement
    routing: RoutingEstimate
    drc: DRCReport
    lvs: LVSReport
    timing: TimingReport
    power: PowerReport
    min_period_ns: float
    #: Multi-corner PVT signoff, present when the flow ran with a
    #: corner set; ``timing``/``power`` stay the nominal-point views.
    signoff: Optional[SignoffReport] = None
    #: Functional verification of the optimized netlist against the
    #: golden model, present when the flow ran with ``verify=True``.
    verification: Optional["VerificationReport"] = None

    @property
    def timing_met_signoff(self) -> bool:
        """Timing met at the worst corner — nominal when no corner set
        was evaluated (single-point signoff, the historical meaning)."""
        if self.signoff is not None:
            return self.signoff.clean
        return self.timing.met

    @property
    def signoff_clean(self) -> bool:
        """DRC/LVS clean and timing met at the *worst* evaluated
        corner (nominal-only runs keep their historical meaning)."""
        return self.drc.clean and self.lvs.clean and self.timing_met_signoff

    @property
    def verification_clean(self) -> bool:
        """Functional verification passed — vacuously true when the
        flow ran without the ``verify=`` stage."""
        return self.verification is None or self.verification.passed

    @property
    def area_um2(self) -> float:
        return self.placement.area_um2

    @property
    def max_frequency_mhz(self) -> float:
        return 1e3 / self.min_period_ns

    @property
    def energy_per_cycle_pj(self) -> float:
        return self.power.energy_per_cycle_pj

    def verilog(self) -> str:
        return emit_verilog(self.netlist)

    def gds(self) -> str:
        return write_gds_json(self.netlist, self.placement, default_library())

    def summary(self) -> Dict[str, float]:
        return {
            "area_um2": self.area_um2,
            "width_um": self.placement.width_um,
            "height_um": self.placement.height_um,
            "min_period_ns": self.min_period_ns,
            "max_frequency_mhz": self.max_frequency_mhz,
            "power_mw": self.power.total_mw,
            "energy_per_cycle_pj": self.energy_per_cycle_pj,
            "leakage_mw": self.power.leakage_mw,
            "cells": float(self.netlist.leaf_count()),
            "wirelength_um": self.routing.total_wirelength_um,
            "congestion": self.routing.congestion,
        }

    def report(self) -> str:
        s = self.summary()
        lines = [
            f"implementation of {self.spec.describe()}",
            f"  architecture : {self.arch.knob_summary()}",
            f"  outline      : {s['width_um']:.1f} x {s['height_um']:.1f} um"
            f" ({s['area_um2'] / 1e6:.4f} mm^2)",
            f"  cells        : {int(s['cells'])}",
            f"  fmax (post)  : {s['max_frequency_mhz']:.0f} MHz "
            f"(min period {s['min_period_ns']:.3f} ns)",
            f"  power        : {s['power_mw']:.1f} mW @ "
            f"{self.power.frequency_mhz:.0f} MHz "
            f"({s['energy_per_cycle_pj']:.1f} pJ/cycle)",
            f"  signoff      : DRC {'clean' if self.drc.clean else 'FAIL'}, "
            f"LVS {'clean' if self.lvs.clean else 'FAIL'}, "
            f"timing {'MET' if self.timing.met else 'VIOLATED'}",
        ]
        if self.signoff is not None:
            lines.append("")
            lines.append(self.signoff.describe())
        if self.verification is not None:
            lines.append("")
            lines.append(self.verification.describe())
        return "\n".join(lines)


@dataclass
class ImplementSession:
    """Incremental implementation flow for one spec.

    The timing-escalation loop implements the same spec several times
    with slightly different architectures.  A session keeps everything
    an architecture change cannot invalidate:

    * the **bitcell array** module depends only on ``(height, width,
      mcr, memcell)`` — none of the searcher's timing fixes touch it.
      It is generated once, its flatten leaf-template is primed, and
      every attempt's :meth:`~repro.rtl.ir.Module.flatten` replays the
      cached template instead of re-walking the 10k-cell array subtree;
    * the **optimized flat netlist** per architecture (generation,
      flattening, validation and the synthesis passes are the front half
      of the flow) — revisiting an architecture skips it entirely;
    * the finished :class:`Implementation` per architecture, so the
      escalation loop never pays twice for the same design point.
    """

    spec: MacroSpec
    library: StdCellLibrary = field(default_factory=default_library)
    process: Process = field(default_factory=lambda: GENERIC_40NM)
    input_sparsity: float = 0.0
    weight_sparsity: float = 0.0
    #: Operating corners for multi-corner signoff; ``None`` keeps the
    #: historical nominal-only evaluation.  The corner passes share the
    #: compiled NetView, STA arrays and the nominal power analysis, so
    #: each extra corner costs one derated arrival propagation.
    corners: Optional[CornerSet] = None
    #: Netlist-level leakage recovery (``--vt auto``): after synthesis,
    #: combinational cells with setup slack to spare at the worst
    #: signoff derate are demoted to hvt (see
    #: :func:`repro.synth.vt.recover_leakage`).  The slack check runs
    #: pre-placement against a wire-derated period budget, so the
    #: post-layout wires the placer adds stay covered.
    vt_recovery: bool = False

    def __post_init__(self) -> None:
        self._arrays: Dict[tuple, Module] = {}
        self._netlists: Dict[
            MacroArchitecture, Tuple[Module, MacroShape, Dict[str, int]]
        ] = {}
        self._implementations: Dict[MacroArchitecture, Implementation] = {}
        #: Persistent place/route arena: warm re-implements replay the
        #: winning floorplan and reuse the routing estimate instead of
        #: re-deriving them from the flat module (see
        #: :class:`repro.layout.arena.LayoutArena`).
        self._arena = LayoutArena()

    # -- cached front half -------------------------------------------------

    def array_module(self, arch: MacroArchitecture) -> Module:
        """The bitcell array for this spec (shared across attempts)."""
        from ..rtl.gen.memarray import generate_memory_array

        key = (self.spec.height, self.spec.width, self.spec.mcr, arch.memcell)
        array = self._arrays.get(key)
        if array is None:
            array, _ = generate_memory_array(*key)
            array._leaf_template()  # prime: every attempt replays it
            self._arrays[key] = array
        return array

    def netlist(
        self, arch: MacroArchitecture
    ) -> Tuple[Module, MacroShape, Dict[str, int]]:
        """Optimized flat netlist (+ shape, synthesis stats) for one
        architecture, cached per architecture."""
        from ..synth.optimize import optimize

        entry = self._netlists.get(arch)
        if entry is None:
            module, shape = generate_macro_with_array(
                self.spec, arch, array=self.array_module(arch)
            )
            flat = module.flatten()
            # ``optimize`` rewrites the freshly flattened module (owned
            # by this session) in place and validates it, which covers
            # the flat netlist the rest of the flow consumes.
            flat, synth_stats = optimize(
                flat,
                self.library,
                vt=None if arch.vt == "svt" else arch.vt,
            )
            if self.vt_recovery:
                synth_stats["vt_recovered"] = self._recover_leakage(flat)
            entry = self._netlists[arch] = (flat, shape, synth_stats)
        return entry

    def _recover_leakage(self, flat: Module) -> int:
        """Demote slack-rich combinational cells to hvt, budgeting for
        post-layout wires and the worst signoff corner."""
        from ..search.estimate import WIRE_DERATE
        from ..synth.vt import recover_leakage

        derate = 1.0
        if self.corners is not None:
            worst = self.corners.worst_timing(self.process)
            derate = worst.timing_derate(self.process)
        return recover_leakage(
            flat,
            self.library,
            clock_period_ns=self.spec.mac_period_ns / WIRE_DERATE,
            derate=derate,
        )

    # -- verification ------------------------------------------------------

    def verify_implementation(
        self, impl: Implementation, vectors: int = DEFAULT_VECTORS
    ) -> VerificationReport:
        """Run the post-synthesis functional-verification stage on a
        finished implementation and attach the report.

        The optimized netlist is driven with ``vectors`` randomized +
        directed MAC stimuli against the golden model (see
        :mod:`repro.verify`).  The report lands on
        :attr:`Implementation.verification`; a mismatch never raises —
        it is signoff data, judged by
        :attr:`Implementation.verification_clean`.  The compiler's
        escalation loop calls this *once*, on the implementation it
        returns, so discarded timing-escalation attempts never pay for
        verification.
        """
        report = verify_macro(
            impl.spec,
            impl.arch,
            netlist=impl.netlist,
            shape=impl.shape,
            library=self.library,
            vectors=vectors,
        )
        impl.verification = report
        return report

    # -- full flow ---------------------------------------------------------

    def implement(
        self, arch: MacroArchitecture, force: bool = False
    ) -> Implementation:
        """Run (or reuse) the implementation flow for one architecture.

        ``force=True`` bypasses the finished-implementation memo and
        re-runs the whole back half — place, route, DRC, LVS, STA,
        power — against the warm layout arena.  This is the honest
        re-signoff path (every check actually executes); only the pure
        recomputation is skipped, so a warm full implement runs in tens
        of milliseconds instead of re-deriving the layout from scratch.

        The flow allocates hundreds of thousands of short-lived netlist
        objects over a large live heap, which makes the cyclic garbage
        collector's generation-2 scans a measurable fraction of the
        runtime; collection is paused for the duration of this bounded
        operation (the flow creates no reference cycles that must be
        reclaimed mid-run) and restored afterwards.
        """
        if not force:
            cached = self._implementations.get(arch)
            if cached is not None:
                return cached
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._implement_uncached(arch)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _implement_uncached(self, arch: MacroArchitecture) -> Implementation:
        spec = self.spec
        library = self.library
        process = self.process
        flat, shape, _synth_stats = self.netlist(arch)

        # SDP place & route through the persistent arena: the first
        # implement of an architecture pays the full floorplan scan and
        # HPWL reduction; re-implements replay the winning floorplan and
        # reuse the routing estimate (same object — its memoized wire
        # load keeps the STA/power caches warm below).
        placement = self._arena.place(flat, library)
        routing = self._arena.route(flat, placement, library, process)
        drc = run_drc(placement)
        lvs = run_lvs(flat, placement)
        if not drc.clean:
            raise LayoutError(f"implementation DRC failed:\n{drc.describe()}")
        if not lvs.clean:
            raise LayoutError(f"implementation LVS failed:\n{lvs.describe()}")

        # Post-layout signoff analyses.
        wire_load = routing.wire_load_fn()
        min_period = minimum_period_ns(flat, library, wire_load)
        timing = analyze(flat, library, spec.mac_period_ns, wire_load)
        stats = sparsity_input_stats(
            flat,
            input_one_probability=0.5 * (1.0 - self.input_sparsity),
            weight_one_probability=0.5 * (1.0 - self.weight_sparsity),
        )
        power = estimate_power(
            flat,
            library,
            process,
            spec.mac_frequency_mhz,
            input_stats=stats,
            wire_load=wire_load,
        )
        signoff = None
        if self.corners is not None:
            signoff = multi_corner_signoff(
                flat,
                library,
                process,
                self.corners,
                clock_period_ns=spec.mac_period_ns,
                wire_load=wire_load,
                nominal_power=power,
                nominal_timing=timing,
            )
        impl = Implementation(
            spec=spec,
            arch=arch,
            shape=shape,
            netlist=flat,
            placement=placement,
            routing=routing,
            drc=drc,
            lvs=lvs,
            timing=timing,
            power=power,
            min_period_ns=min_period,
            signoff=signoff,
        )
        if impl.timing.met:
            # Failed attempts are essentially never revisited (the fix
            # families always move to a new architecture), so caching
            # them would only pin dead netlists/placements in memory
            # across the escalation loop.  The front-half netlist stays
            # cached either way.
            self._implementations[arch] = impl
        return impl


def implement(
    spec: MacroSpec,
    arch: MacroArchitecture,
    library: Optional[StdCellLibrary] = None,
    process: Optional[Process] = None,
    input_sparsity: float = 0.0,
    weight_sparsity: float = 0.0,
    corners: Optional[CornerSet] = None,
    verify: bool = False,
    verify_vectors: int = DEFAULT_VECTORS,
    vt_recovery: bool = False,
) -> Implementation:
    """Run the complete implementation flow for one design point;
    ``verify=True`` adds the functional-verification stage
    (:meth:`ImplementSession.verify_implementation`)."""
    session = ImplementSession(
        spec,
        library=library or default_library(),
        process=process or GENERIC_40NM,
        input_sparsity=input_sparsity,
        weight_sparsity=weight_sparsity,
        corners=corners,
        vt_recovery=vt_recovery,
    )
    impl = session.implement(arch)
    if verify:
        session.verify_implementation(impl, verify_vectors)
    return impl
