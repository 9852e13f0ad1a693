"""Design-rule checking on placements.

The subset of rules that placement can violate (routing rules are folded
into the congestion estimate):

* ``overlap`` — no two cells may overlap;
* ``boundary`` — every cell inside the outline;
* ``site`` — cell width must be positive and not exceed the outline.

(Row-offset legality is guaranteed by construction: the SDP placer only
emits shelf rows and SRAM grid sites, so there is no separate row rule.)

The checks run over the placement's coordinate array: boundary and site
rules are single vectorized comparisons, and the overlap rule uses the
grid-binned :func:`repro.layout.geometry.overlap_pairs` sweep, which
reproduces the pair set of the scalar sort-and-sweep it replaced
(``sweep_overlaps`` in ``tests/reference/layout.py``) exactly.  Every rect is always checked — ``max_violations``
caps only the *reported* violations, never the sweep input (the old
scalar loop broke out of rect collection early, silently truncating the
overlap sweep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .geometry import overlap_pairs
from .sdp import Placement


@dataclass(frozen=True)
class DRCViolation:
    rule: str
    message: str
    instances: tuple


@dataclass(frozen=True)
class DRCReport:
    violations: tuple
    #: Total violations found; exceeds ``len(violations)`` when the
    #: report was capped at ``max_violations``.
    total_violations: int = -1

    def __post_init__(self) -> None:
        if self.total_violations < 0:
            object.__setattr__(self, "total_violations", len(self.violations))

    @property
    def clean(self) -> bool:
        # The report may be capped; cleanliness is judged on the total.
        return self.total_violations == 0

    @property
    def truncated(self) -> bool:
        return self.total_violations > len(self.violations)

    def describe(self) -> str:
        if self.clean:
            return "DRC clean"
        head = [f"DRC: {self.total_violations} violations"]
        if self.truncated:
            head[0] += f" ({len(self.violations)} reported)"
        head += [f"  [{v.rule}] {v.message}" for v in self.violations[:10]]
        return "\n".join(head)


def run_drc(placement: Placement, max_violations: int = 1000) -> DRCReport:
    """Check a placement (the rules below are pure geometry)."""
    violations: List[DRCViolation] = []
    outline = placement.outline
    eps = 1e-9

    names, coords = placement.names, placement.coords
    x0, y0, x1, y1 = (coords[:, i] for i in range(4))

    # Boundary + site rules: one vectorized comparison each, reported in
    # placement order (boundary before site for the same cell, exactly
    # as the scalar per-cell loop emitted them).
    if len(names):
        outside = ~(
            (outline.x0 - eps <= x0)
            & (outline.y0 - eps <= y0)
            & (x1 <= outline.x1 + eps)
            & (y1 <= outline.y1 + eps)
        )
        bad_site = (x1 - x0) <= 0
        for i in np.nonzero(outside | bad_site)[0]:
            name = names[i]
            if outside[i]:
                violations.append(
                    DRCViolation("boundary", f"{name} outside outline", (name,))
                )
            if bad_site[i]:
                violations.append(
                    DRCViolation("site", f"{name} has non-positive width", (name,))
                )

        # SRAM grid cells and standard rows live in separate regions; any
        # true overlap is an error regardless of kind.
        for a, b in overlap_pairs(names, coords, eps):
            violations.append(DRCViolation("overlap", f"{a} overlaps {b}", (a, b)))

    total = len(violations)
    return DRCReport(
        violations=tuple(violations[:max_violations]), total_violations=total
    )
