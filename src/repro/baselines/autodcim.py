"""AutoDCIM-style baseline compiler (DAC'23 [5]).

AutoDCIM assembles template cell layouts into an array: it automates
layout generation but is *not* performance-aware — no subcircuit search,
no timing repair, no multi-spec optimization (paper Table I).  This
baseline reproduces that behaviour on our substrate: one fixed template
architecture per spec (1T passing-gate multiplexer, pure compressor
tree, fully registered pipeline), priced with the same SCL and
implementable through the same flow, so Fig. 8 can show the searched
frontier against the template point on equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..arch import MacroArchitecture
from ..scl.library import SubcircuitLibrary, default_scl
from ..search.estimate import MacroEstimate, estimate_macro
from ..spec import MacroSpec


def template_architecture(spec: MacroSpec) -> MacroArchitecture:
    """AutoDCIM's fixed template: area-lean cells, no timing awareness.

    The 1T passing gate is AutoDCIM's signature multiplexer choice
    (paper Section II.B, option 1).
    """
    arch = MacroArchitecture(
        memcell="DCIM6T",
        mult_style="pg_1t",
        tree_style="cmp42",
        tree_fa_levels=0,
        carry_reorder=False,
        column_split=1,
        reg_after_tree=True,
        reg_after_sna=True,
        ofu_pipeline=0,
        ofu_retimed=False,
        driver_strength=4,
    )
    arch.validate_against(spec)
    return arch


@dataclass(frozen=True)
class AutoDCIMResult:
    spec: MacroSpec
    estimate: MacroEstimate

    @property
    def meets_timing(self) -> bool:
        return self.estimate.met


class AutoDCIMCompiler:
    """Template-assembly compiler: no search, no fixes."""

    name = "AutoDCIM-style"

    def __init__(self, scl: Optional[SubcircuitLibrary] = None) -> None:
        self._scl = scl

    @property
    def scl(self) -> SubcircuitLibrary:
        if self._scl is None:
            self._scl = default_scl()
        return self._scl

    def compile(self, spec: MacroSpec) -> AutoDCIMResult:
        arch = template_architecture(spec)
        est = estimate_macro(spec, arch, self.scl)
        return AutoDCIMResult(spec=spec, estimate=est)
