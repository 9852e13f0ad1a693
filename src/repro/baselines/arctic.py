"""ARCTIC-style baseline compiler (DATE'24 [8]).

ARCTIC parameterizes INT/FP precision in the peripherals (so, unlike
AutoDCIM, it sizes the alignment unit and OFU from the spec) but still
performs no multi-spec subcircuit search: the datapath style is fixed
and timing problems are answered with the single blunt instrument of
deeper pipelining (paper Table I: parameterized precision, not
performance-aware).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..arch import MacroArchitecture
from ..scl.library import SubcircuitLibrary, default_scl
from ..search.estimate import MacroEstimate, estimate_macro
from ..spec import MacroSpec


@dataclass(frozen=True)
class ArcticResult:
    spec: MacroSpec
    estimate: MacroEstimate
    pipeline_steps_used: int

    @property
    def meets_timing(self) -> bool:
        return self.estimate.met


class ArcticCompiler:
    """Parameterized-precision compiler with pipeline-only timing fixes."""

    name = "ARCTIC-style"

    def __init__(self, scl: Optional[SubcircuitLibrary] = None) -> None:
        self._scl = scl

    @property
    def scl(self) -> SubcircuitLibrary:
        if self._scl is None:
            self._scl = default_scl()
        return self._scl

    def base_architecture(self, spec: MacroSpec) -> MacroArchitecture:
        arch = MacroArchitecture(
            memcell="DCIM6T",
            mult_style="tg_nor",
            tree_style="cmp42",
            carry_reorder=False,
            reg_after_tree=True,
            reg_after_sna=True,
            driver_strength=4,
        )
        arch.validate_against(spec)
        return arch

    def compile(self, spec: MacroSpec) -> ArcticResult:
        arch = self.base_architecture(spec)
        est = estimate_macro(spec, arch, self.scl)
        steps = 0
        # Pipeline-only escalation: OFU pipeline, then column split (a
        # register-heavy move ARCTIC-style generators expose), never a
        # datapath substitution.
        while not est.met and steps < 4:
            if arch.ofu_pipeline < 2 and est.critical_segment.name.startswith(
                "ofu"
            ):
                arch = arch.replace(ofu_pipeline=arch.ofu_pipeline + 1)
            elif arch.column_split < 4 and spec.height // (
                arch.column_split * 2
            ) >= 4:
                arch = arch.replace(column_split=arch.column_split * 2)
            elif arch.ofu_pipeline < 2:
                arch = arch.replace(ofu_pipeline=arch.ofu_pipeline + 1)
            else:
                break
            steps += 1
            est = estimate_macro(spec, arch, self.scl)
        return ArcticResult(spec=spec, estimate=est, pipeline_steps_used=steps)
