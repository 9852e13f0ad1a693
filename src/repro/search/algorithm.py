"""Multi-spec-oriented (MSO) searcher — Algorithm 1 of the paper.

Heuristic hierarchical search over the architectural design space:

1. *Search-space definition* — seed architectures biased toward energy,
   area, performance and robustness are derived from the specification
   (:func:`seed_architectures`).
2. *Timing repair* — for each seed, the MAC path is checked against the
   target period and repaired with the escalation sequence: faster adder
   from the SCL, carry reordering, stronger drivers, retiming (insert
   the tree/S&A register), and finally column splitting; then the OFU
   path with retiming and extra pipelining.
3. *Register merging* — boundary registers are removed when the merged
   combinational path still meets timing.
4. *Fine tuning* — power/area-oriented substitutions are applied while
   they keep timing and improve the candidate's weighted PPA score.

Every feasible point visited is recorded; the result is the Pareto
frontier over (power, area) at the met frequency, ready for user
selection and implementation (paper Fig. 8).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..arch import MacroArchitecture
from ..errors import SearchError
from ..spec import MacroSpec, PPAWeights
from ..scl.library import SubcircuitLibrary, default_scl
from .estimate import MacroEstimate, estimate_macro
from .fixes import MAC_FIXES, MERGE_MOVES, OFU_FIXES, TUNING_MOVES
from .pareto import pareto_front

#: Safety cap on repair iterations per seed.
MAX_REPAIR_STEPS = 24

#: Estimates of one search by (library, architecture).  The spec is fixed
#: for the search, and the library tells nominal from signoff pricing.
Memo = Dict[Tuple[SubcircuitLibrary, MacroArchitecture], MacroEstimate]


@dataclass
class SearchResult:
    """Everything the searcher produced for one specification."""

    spec: MacroSpec
    candidates: List[MacroEstimate]
    frontier: List[MacroEstimate]
    fix_counts: Dict[str, int] = field(default_factory=dict)
    #: Signoff-corner slack (ns) per candidate architecture (keyed by
    #: ``arch.knob_summary()``), filled only when the searcher was
    #: given a signoff SCL.  Feasibility stays TT; this is the ranking
    #: signal ``select`` prefers and the escalation phase improves.
    signoff_slacks: Dict[str, float] = field(default_factory=dict)
    #: Name of the signoff corner the slacks were priced at, if any.
    signoff_corner: Optional[str] = None

    def signoff_slack(self, est: MacroEstimate) -> Optional[float]:
        return self.signoff_slacks.get(est.arch.knob_summary())

    def select(self, ppa: Optional[PPAWeights] = None) -> MacroEstimate:
        """Pick the frontier point minimizing the weighted PPA score.

        When signoff-corner slacks are available, frontier points that
        already meet timing at the signoff corner outrank those that
        rely on post-layout escalation; the weighted score breaks ties
        inside each class.
        """
        weights = ppa or self.spec.ppa
        if not self.frontier:
            raise SearchError(
                f"no feasible design for {self.spec.describe()}; "
                "relax the frequency or grow the array"
            )
        pool = self.frontier
        if self.signoff_slacks:
            met = []
            for e in pool:
                slack = self.signoff_slack(e)
                if slack is not None and slack >= -1e-9:
                    met.append(e)
            if met:
                pool = met
        return min(
            pool,
            key=lambda e: weights.score(
                e.power_mw, e.critical_path_ns, e.area_um2
            ),
        )

    def describe(self) -> str:
        lines = [
            f"search for {self.spec.describe()}: "
            f"{len(self.candidates)} feasible candidates, "
            f"{len(self.frontier)} on the Pareto frontier"
        ]
        for est in self.frontier:
            line = f"  {est.describe()}"
            slack = self.signoff_slack(est)
            if slack is not None:
                line += f" [{self.signoff_corner} slack {slack:+.3f} ns]"
            lines.append(line)
        return "\n".join(lines)


def seed_architectures(
    spec: MacroSpec, seed: Optional[int] = None
) -> List[Tuple[str, MacroArchitecture]]:
    """Bias-diverse starting points derived from the specification.

    The list is fully deterministic; ``seed`` only permutes the
    exploration *order* (reproducibly, via ``random.Random(seed)``),
    which exercises order-independence of the search without ever making
    two runs with the same seed disagree — a requirement for the batch
    engine's result cache.
    """
    seeds: List[Tuple[str, MacroArchitecture]] = [
        (
            "energy",
            MacroArchitecture(
                tree_style="cmp42",
                mult_style="tg_nor",
                driver_strength=2,
                reg_after_tree=True,
                reg_after_sna=False,
            ),
        ),
        (
            "area",
            MacroArchitecture(
                tree_style="cmp42",
                mult_style="pg_1t",
                driver_strength=2,
                reg_after_tree=False,
                reg_after_sna=False,
            ),
        ),
        (
            "performance",
            MacroArchitecture(
                tree_style="mixed",
                tree_fa_levels=2,
                mult_style="tg_nor",
                driver_strength=8,
                reg_after_tree=True,
                reg_after_sna=True,
            ),
        ),
        (
            "balanced",
            MacroArchitecture(),
        ),
        (
            "robust",
            MacroArchitecture(memcell="DCIM8T", tree_style="cmp42"),
        ),
    ]
    if spec.mcr <= 2:
        seeds.append(
            (
                "fused",
                MacroArchitecture(
                    mult_style="oai22", tree_style="cmp42", driver_strength=2
                ),
            )
        )
    valid = []
    for name, arch in seeds:
        try:
            arch.validate_against(spec)
        except Exception:
            continue
        valid.append((name, arch))
    if seed is not None:
        random.Random(seed).shuffle(valid)
    return valid


class MSOSearcher:
    """The multi-spec-oriented searcher.

    The fix families can be overridden (usually *restricted*) for
    ablation studies — e.g. the Fig. 5 bench disables retiming or column
    splitting to quantify each technique's contribution.
    """

    def __init__(
        self,
        scl: Optional[SubcircuitLibrary] = None,
        mac_fixes=MAC_FIXES,
        ofu_fixes=OFU_FIXES,
        merge_moves=MERGE_MOVES,
        tuning_moves=TUNING_MOVES,
        seed: Optional[int] = None,
        signoff_scl: Optional[SubcircuitLibrary] = None,
        vt: str = "svt",
    ) -> None:
        from ..tech.stdcells import VT_FLAVORS
        from .fixes import VT_TIMING_FIXES, VT_TUNING_MOVES

        if vt != "auto" and vt not in VT_FLAVORS:
            raise SearchError(
                f"vt must be 'auto' or one of {tuple(sorted(VT_FLAVORS))}, "
                f"got {vt!r}"
            )
        self._scl = scl
        self.mac_fixes = tuple(mac_fixes)
        self.ofu_fixes = tuple(ofu_fixes)
        self.merge_moves = tuple(merge_moves)
        self.tuning_moves = tuple(tuning_moves)
        #: ``"auto"`` lets the search walk the Vt ladder: lower_vt joins
        #: the timing escalation, raise_vt the leakage fine-tuning.  A
        #: concrete flavor pins every seed (and thus every candidate) to
        #: that flavor instead.
        self.vt = vt
        if vt == "auto":
            self.mac_fixes += VT_TIMING_FIXES
            self.tuning_moves = tuple(VT_TUNING_MOVES) + self.tuning_moves
        self.seed = seed
        #: Corner-characterized SCL (see ``default_scl(corner=...)``):
        #: candidates are *optimized* at TT (feasibility, PPA scoring)
        #: but additionally priced here, and the searcher escalates
        #: toward non-negative slack at this corner.
        self.signoff_scl = signoff_scl

    @property
    def scl(self) -> SubcircuitLibrary:
        if self._scl is None:
            self._scl = default_scl()
        return self._scl

    # -- public API -----------------------------------------------------------

    def search(self, spec: MacroSpec) -> SearchResult:
        result = SearchResult(spec=spec, candidates=[], frontier=[])
        # Seeds, repair, merge, tuning and candidate recording revisit
        # architectures (about 1 in 7 prices is a repeat), so each is
        # priced once per search.  The memo is local to this call: a
        # searcher may run searches for other specs on other threads.
        memo: Memo = {}
        if self.signoff_scl is not None:
            corner = self.signoff_scl.corner
            result.signoff_corner = corner.name if corner else "signoff"
        seen: Set[MacroArchitecture] = set()

        def record(seed: str, move: str, est: MacroEstimate) -> None:
            if move not in ("seed", "reject"):
                result.fix_counts[move] = result.fix_counts.get(move, 0) + 1
            if est.met and est.arch not in seen:
                seen.add(est.arch)
                result.candidates.append(est)
                if self.signoff_scl is not None:
                    result.signoff_slacks[est.arch.knob_summary()] = (
                        self._signoff_slack(spec, est.arch, memo)
                    )

        for seed_name, seed_arch in seed_architectures(spec, self.seed):
            if self.vt not in ("auto", "svt"):
                seed_arch = seed_arch.replace(vt=self.vt)
            est = self._estimate(spec, seed_arch, memo)
            record(seed_name, "seed", est)
            est = self._repair_timing(spec, est, seed_name, record, memo)
            if est is None or not est.met:
                continue
            est = self._repair_signoff(spec, est, seed_name, record, memo)
            est = self._merge_registers(spec, est, seed_name, record, memo)
            self._fine_tune(spec, est, seed_name, record, memo)

        result.frontier = pareto_front(
            result.candidates, lambda e: (e.power_mw, e.area_um2)
        )
        result.frontier.sort(key=lambda e: e.power_mw)
        return result

    # -- phases ---------------------------------------------------------------

    def _estimate(
        self, spec: MacroSpec, arch: MacroArchitecture, memo: Memo
    ) -> MacroEstimate:
        return _price(spec, arch, self.scl, memo)

    def _signoff_estimate(
        self, spec: MacroSpec, arch: MacroArchitecture, memo: Memo
    ) -> MacroEstimate:
        return _price(spec, arch, self.signoff_scl, memo)

    def _signoff_slack(
        self, spec: MacroSpec, arch: MacroArchitecture, memo: Memo
    ) -> float:
        return self._signoff_estimate(spec, arch, memo).slack_ns

    def _signoff_ok(
        self, spec: MacroSpec, est: MacroEstimate, memo: Memo
    ) -> bool:
        """Timing at the signoff corner, when one is configured."""
        if self.signoff_scl is None:
            return True
        return self._signoff_estimate(spec, est.arch, memo).met

    def _repair_timing(
        self, spec, est, seed_name, record, memo
    ) -> Optional[MacroEstimate]:
        """Escalating MAC-path then OFU-path repair (paper Fig. 5)."""
        for _ in range(MAX_REPAIR_STEPS):
            if est.met:
                return est
            crit = est.critical_segment.name
            primary = (
                self.ofu_fixes if crit.startswith("ofu") else self.mac_fixes
            )
            # Cross-path fallback: the other fix family, tried after.
            fallback = (
                self.mac_fixes if crit.startswith("ofu") else self.ofu_fixes
            )
            improved = None
            for name, move in primary + fallback:
                candidate_arch = move(spec, est.arch)
                if candidate_arch is None:
                    continue
                try:
                    candidate = self._estimate(spec, candidate_arch, memo)
                except Exception:
                    # One invalid candidate must not kill the search.
                    continue
                if candidate.critical_path_ns < est.critical_path_ns - 1e-6:
                    improved = (name, candidate)
                    break
            if improved is None:
                record(seed_name, "infeasible", est)
                return None
            name, est = improved
            record(seed_name, name, est)
        return est if est.met else None

    def _repair_signoff(
        self, spec, est, seed_name, record, memo
    ) -> MacroEstimate:
        """Escalate on signoff-corner slack (paper loop, worst corner).

        Runs after TT timing closes: while the corner-characterized SCL
        still prices the candidate short of the target, the same fix
        families keep escalating — but only through architectures that
        stay TT-feasible, and every step must strictly improve the
        corner's critical path.  When the corner cannot be closed at
        the estimate level the best TT-met point reached is kept (the
        LUT model carries a wire derate the placed design may not pay,
        and post-layout escalation re-checks the real corner slack).
        """
        if self.signoff_scl is None:
            return est
        s_est = self._signoff_estimate(spec, est.arch, memo)
        for _ in range(MAX_REPAIR_STEPS):
            if s_est.met:
                return est
            crit = s_est.critical_segment.name
            primary = (
                self.ofu_fixes if crit.startswith("ofu") else self.mac_fixes
            )
            fallback = (
                self.mac_fixes if crit.startswith("ofu") else self.ofu_fixes
            )
            improved = None
            for name, move in primary + fallback:
                candidate_arch = move(spec, est.arch)
                if candidate_arch is None:
                    continue
                try:
                    candidate = self._estimate(spec, candidate_arch, memo)
                    if not candidate.met:
                        continue
                    candidate_s = self._signoff_estimate(
                        spec, candidate_arch, memo
                    )
                except Exception:
                    continue
                if candidate_s.critical_path_ns < s_est.critical_path_ns - 1e-6:
                    improved = (name, candidate, candidate_s)
                    break
            if improved is None:
                return est
            name, est, s_est = improved
            record(seed_name, name, est)
        return est

    def _merge_registers(
        self, spec, est, seed_name, record, memo
    ) -> MacroEstimate:
        """Remove boundary registers while the merged path meets timing
        (and, when a signoff corner is configured, does not fall out of
        a corner-met state the escalation just reached)."""
        hold_signoff = self._signoff_ok(spec, est, memo)
        changed = True
        while changed:
            changed = False
            for name, move in self.merge_moves:
                candidate_arch = move(spec, est.arch)
                if candidate_arch is None:
                    continue
                candidate = self._estimate(spec, candidate_arch, memo)
                if candidate.met and (
                    not hold_signoff or self._signoff_ok(spec, candidate, memo)
                ):
                    est = candidate
                    record(seed_name, name, est)
                    changed = True
        return est

    def _fine_tune(
        self, spec, est, seed_name, record, memo
    ) -> MacroEstimate:
        """Greedy power/area substitutions holding timing; records every
        feasible intermediate as a candidate for the frontier.  A
        corner-met starting point only accepts substitutions that stay
        corner-met (tuning must not spend the signoff slack escalation
        just bought)."""
        weights = spec.ppa
        hold_signoff = self._signoff_ok(spec, est, memo)
        improved = True
        steps = 0
        while improved and steps < MAX_REPAIR_STEPS:
            improved = False
            steps += 1
            base_score = weights.score(
                est.power_mw, est.critical_path_ns, est.area_um2
            )
            for name, move in self.tuning_moves:
                candidate_arch = move(spec, est.arch)
                if candidate_arch is None:
                    continue
                try:
                    candidate = self._estimate(spec, candidate_arch, memo)
                except Exception:
                    continue
                if not candidate.met:
                    continue
                if hold_signoff and not self._signoff_ok(spec, candidate, memo):
                    continue
                record(seed_name, name, candidate)
                score = weights.score(
                    candidate.power_mw,
                    candidate.critical_path_ns,
                    candidate.area_um2,
                )
                if score < base_score - 1e-9:
                    est = candidate
                    improved = True
                    break
        return est


def _price(
    spec: MacroSpec,
    arch: MacroArchitecture,
    scl: SubcircuitLibrary,
    memo: Memo,
) -> MacroEstimate:
    """``estimate_macro`` of ``arch``, at most once per memo.  A pricing
    that raises is not stored, so the next visit raises again."""
    key = (scl, arch)
    est = memo.get(key)
    if est is None:
        est = memo[key] = estimate_macro(spec, arch, scl)
    return est
