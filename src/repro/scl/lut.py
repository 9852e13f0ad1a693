"""PPA records and lookup tables for the subcircuit library.

"We build a Subcircuit Library (SCL) that includes PPA lookup tables
(LUTs) for subcircuits of various topologies, dimensions, and timing
constraints" (paper Section III.B).  A :class:`PPARecord` summarizes one
characterized subcircuit; a :class:`PPATable` stores records keyed by a
(variant, dimensions) tuple and interpolates along the dimension axes
when asked for a size that was not explicitly characterized — the
paper's "estimated and scaled from synthesis data".
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from ..errors import LibraryError


@dataclass(frozen=True)
class PPARecord:
    """Characterized PPA of one subcircuit instance.

    Attributes
    ----------
    delay_ns:
        Worst input-to-output combinational delay (for register-bounded
        blocks like the S&A: the register-to-register path).
    energy_pj:
        Dynamic energy per active cycle at the library's nominal voltage
        and default input statistics.
    area_um2:
        Total placed cell area.
    leakage_mw:
        Static power at nominal voltage.
    cells:
        Leaf-cell count (diagnostics, Table-like reporting).
    stage_delays_ns:
        For multi-stage blocks (OFU): per-stage combinational delays so
        the searcher can price retiming and pipelining moves.
    """

    delay_ns: float
    energy_pj: float
    area_um2: float
    leakage_mw: float
    cells: int = 0
    stage_delays_ns: Tuple[float, ...] = ()

    def scaled(self, factor: float) -> "PPARecord":
        """Linear scale of the extensive quantities (energy/area/leakage
        and cells); delay is intensive and kept."""
        return replace(
            self,
            energy_pj=self.energy_pj * factor,
            area_um2=self.area_um2 * factor,
            leakage_mw=self.leakage_mw * factor,
            cells=int(round(self.cells * factor)),
        )


def _lerp(a: float, b: float, t: float) -> float:
    return a + (b - a) * t


def interpolate_records(
    lo: PPARecord, hi: PPARecord, t: float
) -> PPARecord:
    """Component-wise linear interpolation between two records."""
    n_stages = max(len(lo.stage_delays_ns), len(hi.stage_delays_ns))
    stages = tuple(
        _lerp(
            lo.stage_delays_ns[i] if i < len(lo.stage_delays_ns) else 0.0,
            hi.stage_delays_ns[i] if i < len(hi.stage_delays_ns) else 0.0,
            t,
        )
        for i in range(n_stages)
    )
    return PPARecord(
        delay_ns=_lerp(lo.delay_ns, hi.delay_ns, t),
        energy_pj=_lerp(lo.energy_pj, hi.energy_pj, t),
        area_um2=_lerp(lo.area_um2, hi.area_um2, t),
        leakage_mw=_lerp(lo.leakage_mw, hi.leakage_mw, t),
        cells=int(round(_lerp(lo.cells, hi.cells, t))),
        stage_delays_ns=stages,
    )


class PPATable:
    """Records for one subcircuit kind.

    Keys are ``(variant, dim)`` where ``variant`` is a string (topology
    + discrete options) and ``dim`` an integer primary dimension (tree
    inputs, driver rows, OFU input width...).  Lookup at an
    uncharacterized ``dim`` interpolates between the nearest
    characterized sizes of the same variant; beyond the grid it
    extrapolates linearly from the outermost pair.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._records: Dict[Tuple[str, int], PPARecord] = {}
        self._dims_by_variant: Dict[str, List[int]] = {}
        #: Interpolated/extrapolated lookups memoized per (variant, dim)
        #: — the searcher prices the same off-grid sizes thousands of
        #: times per sweep.  Records are frozen, so sharing is safe;
        #: :meth:`add` invalidates (tables are sealed in practice).
        self._interp_cache: Dict[Tuple[str, int], PPARecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    @property
    def variants(self) -> Tuple[str, ...]:
        return tuple(sorted(self._dims_by_variant))

    def add(self, variant: str, dim: int, record: PPARecord) -> None:
        key = (variant, dim)
        if key in self._records:
            raise LibraryError(f"{self.kind}: duplicate entry {key}")
        self._records[key] = record
        dims = self._dims_by_variant.setdefault(variant, [])
        bisect.insort(dims, dim)
        self._interp_cache.clear()

    def lookup(self, variant: str, dim: int) -> PPARecord:
        key = (variant, dim)
        rec = self._records.get(key)
        if rec is not None:
            return rec
        rec = self._interp_cache.get(key)
        if rec is not None:
            return rec
        dims = self._dims_by_variant.get(variant)
        if not dims:
            raise LibraryError(
                f"{self.kind}: unknown variant {variant!r}; "
                f"known: {self.variants}"
            )
        if len(dims) == 1:
            only = self._records[(variant, dims[0])]
            rec = only.scaled(dim / dims[0])
            self._interp_cache[key] = rec
            return rec
        pos = bisect.bisect_left(dims, dim)
        if pos == 0:
            lo_d, hi_d = dims[0], dims[1]
        elif pos >= len(dims):
            lo_d, hi_d = dims[-2], dims[-1]
        else:
            lo_d, hi_d = dims[pos - 1], dims[pos]
        lo = self._records[(variant, lo_d)]
        hi = self._records[(variant, hi_d)]
        t = (dim - lo_d) / (hi_d - lo_d)
        rec = interpolate_records(lo, hi, t)
        # Clamp extrapolated extensive metrics at zero.
        if rec.energy_pj < 0 or rec.area_um2 < 0:
            rec = PPARecord(
                delay_ns=max(rec.delay_ns, 1e-4),
                energy_pj=max(rec.energy_pj, 0.0),
                area_um2=max(rec.area_um2, 0.0),
                leakage_mw=max(rec.leakage_mw, 0.0),
                cells=max(rec.cells, 0),
                stage_delays_ns=rec.stage_delays_ns,
            )
        self._interp_cache[key] = rec
        return rec

    def items(self):
        return self._records.items()
