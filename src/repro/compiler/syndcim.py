"""SynDCIM — the end-to-end performance-to-layout compiler.

``SynDCIM.compile(spec)`` reproduces the paper's Fig. 2 pipeline:

1. build/reuse the subcircuit library for the target process;
2. run the multi-spec-oriented searcher to obtain the Pareto frontier
   of architectures meeting the performance constraints;
3. select one design by the user's PPA preference (or an explicit
   choice);
4. push it through the synthesis + SDP place-and-route implementation
   flow with DRC/LVS and post-layout timing/power signoff.

Steps 1-3 take milliseconds (LUT arithmetic); step 4 builds the actual
netlist and layout and can be skipped (``implement=False``) when only
the frontier is wanted — e.g. for design-space-exploration sweeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..arch import MacroArchitecture
from ..errors import SearchError
from ..options import CompileOptions
from ..scl.library import SubcircuitLibrary, default_scl
from ..search.algorithm import MSOSearcher, SearchResult
from ..search.estimate import MacroEstimate
from ..signoff.corners import CornerSet
from ..spec import MacroSpec
from ..tech.process import GENERIC_40NM, Process
from ..tech.stdcells import StdCellLibrary, default_library
from ..verify.harness import DEFAULT_VECTORS as DEFAULT_VERIFY_VECTORS
from .flow import Implementation, ImplementSession

#: Implementation attempts per compile: the first, plus up to three
#: timing escalations after post-layout STA misses.
MAX_IMPLEMENT_ATTEMPTS = 4


@dataclass
class CompileResult:
    """Output of one compiler run."""

    spec: MacroSpec
    search: SearchResult
    selected: MacroEstimate
    implementation: Optional[Implementation]

    @property
    def frontier(self) -> List[MacroEstimate]:
        return self.search.frontier

    def report(self) -> str:
        lines = [self.search.describe(), ""]
        lines.append(f"selected: {self.selected.describe()}")
        if self.implementation is not None:
            lines.append("")
            lines.append(self.implementation.report())
        return "\n".join(lines)


class SynDCIM:
    """The compiler facade.

    Parameters
    ----------
    scl:
        Pre-built subcircuit library; defaults to the shared library for
        the default 40 nm-class process (built lazily, cached).
    library / process:
        Cell library and process used by the implementation flow.
    corners:
        Operating corners for multi-corner PVT signoff (see
        :mod:`repro.signoff`).  When set, the searcher optimizes at TT
        but ranks and escalates on the worst corner's slack (priced
        from a corner-characterized SCL), the implementation flow
        evaluates every corner, and ``signoff_clean`` means clean at
        the worst corner.  ``None`` keeps the nominal-only behaviour.
    vt:
        Threshold-flavor policy.  A concrete flavor (``"svt"``,
        ``"hvt"``, ``"lvt"``, ``"ulvt"``) maps every candidate's logic
        to that flavor; ``"auto"`` lets the searcher walk the Vt ladder
        (lower_vt joins timing escalation, raise_vt the leakage
        tuning) and additionally runs netlist-level leakage recovery
        during implementation (see
        :func:`repro.synth.vt.recover_leakage`).
    """

    def __init__(
        self,
        scl: Optional[SubcircuitLibrary] = None,
        library: Optional[StdCellLibrary] = None,
        process: Optional[Process] = None,
        seed: Optional[int] = None,
        corners: Optional[CornerSet] = None,
        vt: str = "svt",
    ) -> None:
        self._scl = scl
        self.library = library or default_library()
        self.process = process or GENERIC_40NM
        self.seed = seed
        self.corners = corners
        self.vt = vt
        self._signoff_scl: Optional[SubcircuitLibrary] = None

    @classmethod
    def from_options(cls, options: "CompileOptions") -> "SynDCIM":
        """Build the facade from the canonical
        :class:`~repro.options.CompileOptions` bundle — how every batch
        and service worker builds its compiler (see
        :func:`execute_job`), so a facade built this way prices exactly
        like they do."""
        return cls(
            process=options.resolve_process(),
            seed=options.seed,
            corners=options.corner_set(),
            vt=options.vt,
        )

    @property
    def scl(self) -> SubcircuitLibrary:
        if self._scl is None:
            # For an alternate cell library (e.g. imported from a .lib
            # file) default_scl characterizes *that* backend; the
            # default library keeps the shared memoized artifact.
            self._scl = default_scl(self.process, library=self.library)
        return self._scl

    @property
    def signoff_scl(self) -> Optional[SubcircuitLibrary]:
        """Corner-characterized SCL for the worst timing corner, or
        ``None`` when no corners are configured / the worst corner is
        the nominal point itself (then TT pricing already covers it)."""
        if self.corners is None:
            return None
        if self._signoff_scl is None:
            from ..signoff.corners import worst_corner_scl

            self._signoff_scl = worst_corner_scl(
                self.process,
                self.corners,
                library=(
                    None if self.library is default_library()
                    else self.library
                ),
            )
        return self._signoff_scl

    def search(self, spec: MacroSpec) -> SearchResult:
        """Run only the multi-spec-oriented search."""
        return MSOSearcher(
            self.scl,
            seed=self.seed,
            signoff_scl=self.signoff_scl,
            vt=self.vt,
        ).search(spec)

    def compile(
        self,
        spec: MacroSpec,
        choose: Optional[MacroArchitecture] = None,
        implement_design: bool = True,
        input_sparsity: float = 0.0,
        weight_sparsity: float = 0.0,
        verify: bool = False,
        verify_vectors: int = DEFAULT_VERIFY_VECTORS,
    ) -> CompileResult:
        """Full performance-to-layout compilation.

        The frontier point that best fits the spec's PPA weights is
        implemented; ``choose`` overrides that selection with an explicit
        frontier architecture ("one is finally selected by the user",
        Section III.A).  ``verify=True`` adds the post-synthesis
        functional-verification stage: the optimized netlist is driven
        with ``verify_vectors`` randomized + directed MAC stimuli
        against the golden model (see :mod:`repro.verify`), and the
        report lands on ``implementation.verification``.
        """
        result = self.search(spec)
        if choose is not None:
            matches = [
                e
                for e in result.candidates
                if e.arch == choose
            ]
            if not matches:
                raise SearchError(
                    "chosen architecture is not among the feasible "
                    "candidates; run .search() and pick from .frontier"
                )
            selected = matches[0]
        else:
            selected = result.select()
        impl = None
        if implement_design:
            impl = self._implement_with_escalation(
                spec,
                selected.arch,
                input_sparsity,
                weight_sparsity,
                verify=verify,
                verify_vectors=verify_vectors,
            )
        return CompileResult(
            spec=spec,
            search=result,
            selected=selected,
            implementation=impl,
        )

    def _implement_with_escalation(
        self,
        spec: MacroSpec,
        arch: MacroArchitecture,
        input_sparsity: float,
        weight_sparsity: float,
        verify: bool = False,
        verify_vectors: int = DEFAULT_VERIFY_VECTORS,
    ) -> Implementation:
        """Implement; when post-layout STA misses (wires the LUT model
        could not see), escalate with the same fix families the searcher
        uses and re-implement — the paper's loop between the searcher
        and the standard digital flow.

        All attempts share one :class:`ImplementSession`, so escalation
        is incremental: the bitcell array is generated once, and
        revisited architectures reuse their cached netlist and
        implementation outright instead of re-running the flow from RTL
        generation.
        """
        from ..search.fixes import MAC_FIXES, OFU_FIXES, VT_TIMING_FIXES

        mac_fixes = MAC_FIXES
        if self.vt == "auto":
            # In auto mode the escalation loop may also step the logic
            # flavor faster, mirroring the searcher's fix family.
            mac_fixes = mac_fixes + VT_TIMING_FIXES
        # Escalation attempts that miss timing are discarded, so only
        # the final implementation (below) pays for verification.
        session = ImplementSession(
            spec,
            library=self.library,
            process=self.process,
            input_sparsity=input_sparsity,
            weight_sparsity=weight_sparsity,
            corners=self.corners,
            vt_recovery=self.vt == "auto",
        )
        impl = session.implement(arch)
        attempts = 1
        while not impl.timing_met_signoff and attempts < MAX_IMPLEMENT_ATTEMPTS:
            # With corners configured, escalation is driven by the
            # *worst corner's* critical endpoint — the path the SS
            # derate pushed over the clock — not the nominal one.
            if impl.signoff is not None:
                endpoint = impl.signoff.worst.timing.endpoint
            else:
                endpoint = impl.timing.endpoint
            ofu_limited = "ofu" in endpoint or "fused" in endpoint or "outreg" in endpoint
            fixes = OFU_FIXES if ofu_limited else mac_fixes
            next_arch = None
            for _, move in fixes:
                candidate = move(spec, impl.arch)
                if candidate is not None and candidate != impl.arch:
                    next_arch = candidate
                    break
            if next_arch is None:
                break
            impl = session.implement(next_arch)
            attempts += 1
        if verify:
            session.verify_implementation(impl, vectors=verify_vectors)
        return impl


# ---------------------------------------------------------------------------
# Serializable result records and the pure batch-job entry point.
#
# The batch engine runs compilations in worker processes and persists
# their outputs as JSON, so everything below speaks plain dicts: a
# *record* is the JSON-friendly projection of a CompileResult that the
# sweeps, the cache and the summarize report all share.
# ---------------------------------------------------------------------------


def estimate_record(est: MacroEstimate) -> Dict[str, object]:
    """JSON-friendly projection of one searched design point."""
    return {
        "arch": est.arch.to_dict(),
        "arch_summary": est.arch.knob_summary(),
        "power_mw": est.power_mw,
        "area_um2": est.area_um2,
        "critical_path_ns": est.critical_path_ns,
        "met": est.met,
        "tops": est.tops,
        "tops_per_watt": est.tops_per_watt,
        "energy_per_cycle_pj": est.energy_per_cycle_pj,
    }


def implementation_record(impl: Implementation) -> Dict[str, object]:
    """JSON-friendly projection of one implementation (flow output)."""
    record: Dict[str, object] = dict(impl.summary())
    record.update(
        {
            "arch": impl.arch.to_dict(),
            "arch_summary": impl.arch.knob_summary(),
            "drc_clean": impl.drc.clean,
            "lvs_clean": impl.lvs.clean,
            "timing_met": impl.timing.met,
            "signoff_clean": impl.signoff_clean,
            "signoff": (
                None if impl.signoff is None else impl.signoff.to_dict()
            ),
            # Functional verification (None when the flow ran without
            # the verify stage; verified then reads None, not True).
            "verified": (
                None
                if impl.verification is None
                else impl.verification.passed
            ),
            "verification": (
                None
                if impl.verification is None
                else impl.verification.to_dict()
            ),
        }
    )
    return record


def result_to_record(result: CompileResult) -> Dict[str, object]:
    """Project a full :class:`CompileResult` onto the record schema."""
    return dict(
        _base_record(result.spec),
        search={
            "n_candidates": len(result.search.candidates),
            "frontier": [estimate_record(e) for e in result.frontier],
            "fix_counts": dict(result.search.fix_counts),
            "signoff_corner": result.search.signoff_corner,
            "signoff_slacks": dict(result.search.signoff_slacks),
        },
        selected=estimate_record(result.selected),
        implementation=(
            implementation_record(result.implementation)
            if result.implementation is not None
            else None
        ),
    )


#: Statuses whose records are deterministic and therefore cacheable;
#: "error" is excluded (a crash may be environmental).  Shared by the
#: batch engine and the service so the policy lives in one place.
CACHEABLE_STATUSES = ("ok", "infeasible")


def _base_record(spec: MacroSpec) -> Dict[str, object]:
    """The record schema's single source of truth: every record is this
    shell with fields overridden — never a hand-built dict, so the
    schema cannot drift between producers."""
    return {
        "status": "ok",
        "error": None,
        # Fault-injection marker: the chaos harness's fault kind when
        # one was scheduled for the attempt that produced this record
        # (see repro.batch.faults); None in every fault-free run.
        "fault": None,
        "spec": spec.to_dict(),
        "spec_summary": spec.describe(),
        "spec_hash": spec.content_hash(),
        "search": None,
        "selected": None,
        "implementation": None,
    }


def _failure_record(
    spec: MacroSpec, status: str, error: str
) -> Dict[str, object]:
    """Record shell for a compilation that produced no result."""
    return dict(_base_record(spec), status=status, error=error)


def _run_to_record(spec: MacroSpec, runner) -> Dict[str, object]:
    """Run ``runner`` and map its outcome onto the record schema:
    SearchError → ``infeasible`` (deterministic, cacheable), anything
    else → ``error``; every record gets an ``elapsed_s`` stamp."""
    started = time.monotonic()
    try:
        record = runner()
    except SearchError as exc:
        record = _failure_record(spec, "infeasible", str(exc))
    except Exception as exc:
        record = _failure_record(
            spec, "error", f"{type(exc).__name__}: {exc}"
        )
    record["elapsed_s"] = round(time.monotonic() - started, 3)
    return record


def execute_job(payload: Dict[str, object]) -> Dict[str, object]:
    """Pure, picklable batch-job entry point.

    Takes a plain-dict payload (built by :mod:`repro.batch.jobs`),
    rebuilds the spec, runs the requested flow and returns a plain-dict
    record — no live objects cross the process boundary in either
    direction, so this function is safe to hand to a worker process
    regardless of start method.

    The one payload type is ``"compile"`` (a
    :class:`~repro.batch.jobs.CompileJob`): full search + selection
    (+ implementation).  Any other type is an ``error`` record.

    Deterministic failures (infeasible specs) come back as
    ``status="infeasible"`` records so sweeps keep going and the result
    is cacheable; any other exception — compiler errors and plain bugs
    alike — as ``status="error"``, so one bad grid corner can never
    abort a sweep and discard its completed points.

    The engine may graft ephemeral ``fault_ctx`` context onto the
    payload (never part of the job key — see
    :data:`repro.batch.jobs.EPHEMERAL_PAYLOAD_KEYS`): it carries the
    (job key, attempt) coordinates the chaos harness needs to inject
    deterministic worker faults.  Injection happens *before* the
    record machinery on purpose — a ``raise`` fault must escape as a
    worker exception (the single-future failure path), not be folded
    into an error record.
    """
    fault_ctx = payload.pop("fault_ctx", None)
    if fault_ctx is not None:
        from ..batch.faults import inject_worker_faults

        inject_worker_faults(
            str(fault_ctx.get("key", "")),  # type: ignore[union-attr]
            int(fault_ctx.get("attempt", 1)),  # type: ignore[union-attr]
        )
    spec = MacroSpec.from_dict(payload["spec"])  # type: ignore[arg-type]

    def runner() -> Dict[str, object]:
        # Rebuilt here, not before: an unknown process or corner name
        # lands in this job's record, not in a dead worker.  The
        # inverse of :meth:`repro.batch.jobs.CompileJob.payload`.
        options = CompileOptions.from_dict(
            dict(
                payload.get("options") or {},  # type: ignore[call-overload]
                process=payload.get("process", GENERIC_40NM.name),
            )
        )
        compiler = SynDCIM.from_options(options)
        job_type = payload.get("type", "compile")
        if job_type != "compile":
            raise ValueError(f"unknown job type {job_type!r}")
        result = compiler.compile(
            spec,
            implement_design=options.implement,
            input_sparsity=options.input_sparsity,
            weight_sparsity=options.weight_sparsity,
            verify=options.verify,
            verify_vectors=options.verify_vectors,
        )
        return result_to_record(result)

    return _run_to_record(spec, runner)

