"""Layout-versus-schematic verification.

Compares the layout database (the placed instances, whose connectivity
labels ride along as the GDS labels carry them) with the source
module: nothing missing, nothing extra.  Because this flow *derives*
layouts from netlists, LVS failures indicate placer/database bugs —
which is exactly what the check is for in the paper's flow too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..rtl.ir import Module
from .sdp import Placement


@dataclass(frozen=True)
class LVSMismatch:
    kind: str  # "missing" | "extra"
    instance: str
    detail: str


@dataclass(frozen=True)
class LVSReport:
    mismatches: Tuple[LVSMismatch, ...]
    compared_instances: int

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.clean:
            return f"LVS clean ({self.compared_instances} instances)"
        lines = [f"LVS: {len(self.mismatches)} mismatches"]
        lines += [
            f"  [{m.kind}] {m.instance}: {m.detail}" for m in self.mismatches[:10]
        ]
        return "\n".join(lines)


def run_lvs(module: Module, placement: Placement) -> LVSReport:
    """Compare the layout database against the schematic module.

    The layout's connectivity labels are those of the placed instances
    themselves, so for a placed instance the cell and pin binding
    always agree with the schematic record — the checks that can
    actually fire are ``missing`` (in schematic, not placed) and
    ``extra`` (placed, not in schematic), reported in that order.  The
    name sets are compared directly, without copying any instance's
    connection dict, which matters on hundred-thousand-cell layouts.
    """
    mismatches: List[LVSMismatch] = []
    placed = set(placement.names)
    source_names = {inst.name for inst in module.instances}

    for inst in module.instances:
        if inst.name not in placed:
            mismatches.append(LVSMismatch("missing", inst.name, "not in layout"))
    for name in placement.names:
        if name not in source_names:
            mismatches.append(LVSMismatch("extra", name, "not in schematic"))
    return LVSReport(
        mismatches=tuple(mismatches), compared_instances=len(source_names)
    )
