"""Persistent layout arena: warm place/route over a fixed netlist.

The implementation back half re-derives everything from the flat module
on every call — partition regexes, per-partition width/area arrays, a
six-candidate floorplan scan, per-net HPWL reductions.  For a fixed
module those are pure recomputation: the partition depends only on the
instance set, the winning floorplan only on the partition, and the
routing estimate only on the placed coordinates.

:class:`LayoutArena` keeps exactly those intermediates alive between
:meth:`place`/:meth:`route` calls, keyed by module and library
identity:

* **place (warm)** — replay the single winning
  :func:`~repro.layout.sdp._try_place` call against the cached
  partition arrays.  The placement is a pure function of
  ``(data, width, height)``, so the replay reproduces the full
  scan's result bit-for-bit (the arena still verifies success and falls
  back to a full scan if the replay ever fails).
* **route (warm)** — reuse the cached :class:`~repro.layout.route.
  RoutingEstimate` when the new placement's names and coordinates are
  bit-equal to the ones the estimate was computed from.  This hands
  back the *same object*, so its ``net_caps_ff`` array — the wire load
  STA's propagation memo keys on by identity — keeps that memo warm
  downstream.

DRC and LVS are deliberately *not* cached: they are the checks that
placer or database bugs would trip, so a warm implement re-runs them
honestly against the replayed placement's names and coordinates.

The arena holds strong references to the modules it has seen — it is
meant to live inside an :class:`~repro.compiler.flow.ImplementSession`,
which already owns those netlists for its own caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..rtl.ir import Module
from ..tech.process import Process
from ..tech.stdcells import StdCellLibrary
from .route import RoutingEstimate, estimate_routing
from .sdp import (
    ROW_HEIGHT_UM,
    Placement,
    _partition,
    _precompute,
    _scan_floorplans,
    _try_place,
)


@dataclass
class _ArenaEntry:
    """Cached layout state for one (module, library) pair."""

    module: Module  # strong ref: keeps the id() key valid
    library: StdCellLibrary
    data: object  # _PartitionArrays
    #: Winning (width, height) of the floorplan scan, once known.
    floorplan: Optional[Tuple[float, float]] = None
    #: Routing estimate + the placement and process it was computed from.
    routing: Optional[RoutingEstimate] = None
    routed: Optional[Placement] = None
    routing_process: Optional[Process] = None
    #: Counters exposed so the perf harness can prove warm-path behavior.
    stats: Dict[str, int] = field(
        default_factory=lambda: {
            "place_scans": 0,
            "place_replays": 0,
            "route_computes": 0,
            "route_reuses": 0,
        }
    )


class LayoutArena:
    """Warm-path cache for repeated place/route of the same module."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], _ArenaEntry] = {}

    def _entry(self, module: Module, library: StdCellLibrary) -> _ArenaEntry:
        key = (id(module), id(library))
        entry = self._entries.get(key)
        if entry is None:
            part = _partition(module)
            data = _precompute(part, library, ROW_HEIGHT_UM)
            entry = self._entries[key] = _ArenaEntry(
                module=module, library=library, data=data
            )
        return entry

    def place(self, module: Module, library: StdCellLibrary) -> Placement:
        """SDP placement with partition/floorplan reuse.

        Cold: full candidate scan (identical to
        :func:`~repro.layout.sdp.place_macro`).  Warm: one
        :func:`_try_place` replay of the recorded winner.
        """
        entry = self._entry(module, library)
        if entry.floorplan is not None:
            placement = _try_place(entry.data, *entry.floorplan)
            if placement is not None:
                entry.stats["place_replays"] += 1
                return placement
            # A failed replay means the cached winner is somehow stale;
            # fall through to an honest rescan rather than erroring.
        placement = _scan_floorplans(entry.data)
        entry.floorplan = (placement.outline.width, placement.outline.height)
        entry.stats["place_scans"] += 1
        return placement

    def route(
        self,
        module: Module,
        placement: Placement,
        library: StdCellLibrary,
        process: Process,
    ) -> RoutingEstimate:
        """Routing estimate, reused when the placement is bit-identical.

        Congestion depends on the outline and the caps on the process,
        so both participate in the staleness check alongside the names
        and coordinates themselves.
        """
        entry = self._entry(module, library)
        routed = entry.routed
        if (
            entry.routing is not None
            and entry.routing_process is process
            and routed.outline == placement.outline
            and routed.names == placement.names
            and np.array_equal(routed.coords, placement.coords)
        ):
            entry.stats["route_reuses"] += 1
            return entry.routing
        routing = estimate_routing(module, placement, library, process)
        entry.routing = routing
        entry.routed = placement
        entry.routing_process = process
        entry.stats["route_computes"] += 1
        return routing

    def stats(self, module: Module, library: StdCellLibrary) -> Dict[str, int]:
        """Warm/cold counters for one module (zeros if never seen)."""
        entry = self._entries.get((id(module), id(library)))
        if entry is None:
            return {
                "place_scans": 0,
                "place_replays": 0,
                "route_computes": 0,
                "route_reuses": 0,
            }
        return dict(entry.stats)
