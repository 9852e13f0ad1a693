"""Global-routing estimation: wirelength, wire loads, congestion.

After SDP placement the router's job is summarized by three standard
estimates:

* per-net **half-perimeter wirelength** (HPWL) over the placed pin
  positions (cell centers — adequate at the 1.8 um row scale);
* per-net **wire capacitance** ``HPWL * c_wire``, the load handed to
  post-layout STA and power;
* **congestion**: demanded track length over available track length;
  > 1.0 means the uniform routing the SDP style promises is not
  achievable and the floorplan must grow.

:func:`estimate_routing` computes the per-net reductions over the
compiled :class:`~repro.rtl.netview.NetView` pin tables and the
placement's coordinate arrays — min/max reductions grouped by net index
instead of a Python dict of point lists.  The original scalar walk is
kept in ``tests/reference/layout.py``; the equivalence suite pins the
per-net lengths and caps of the two bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..errors import LayoutError
from ..rtl.ir import Module
from ..rtl.netview import net_view
from ..tech.process import Process
from ..tech.stdcells import StdCellLibrary
from .geometry import rect_arrays
from .sdp import Placement


@dataclass(frozen=True)
class RoutingEstimate:
    """Routing summary for one placed design."""

    total_wirelength_um: float
    net_lengths_um: Dict[str, float]
    net_caps_ff: Dict[str, float]
    congestion: float
    layers_assumed: int = 4

    def wire_load_fn(self) -> Callable[[str], float]:
        """Adapter for :func:`repro.sta.analysis.analyze` and the power
        estimator: net name -> wire capacitance (fF).

        The closure is memoized on the estimate, so every caller holding
        the same :class:`RoutingEstimate` sees the same function object.
        STA's propagation cache is keyed by wire-load *identity* (see
        :func:`repro.sta.analysis._propagate_view`), so handing out a
        fresh closure per call would silently defeat it.
        """
        fn = self.__dict__.get("_wire_load_fn")
        if fn is None:
            caps = self.net_caps_ff

            def load(net: str) -> float:
                return caps.get(net, 0.0)

            object.__setattr__(self, "_wire_load_fn", load)
            fn = load
        return fn

    def describe(self) -> str:
        return (
            f"wirelength {self.total_wirelength_um / 1e3:.1f} mm over "
            f"{len(self.net_lengths_um)} nets, congestion "
            f"{self.congestion:.2f}"
        )


def _supply_and_congestion(
    placement: Placement, process: Process, total: float
) -> Tuple[int, float]:
    """Track supply: `layers` horizontal+vertical layers at the routing
    pitch across the outline."""
    layers = 4
    tracks_h = placement.outline.height / process.track_pitch_um
    tracks_v = placement.outline.width / process.track_pitch_um
    supply = (
        tracks_h * placement.outline.width + tracks_v * placement.outline.height
    ) * (layers / 2.0)
    congestion = total / supply if supply > 0 else float("inf")
    return layers, congestion


def estimate_routing(
    module: Module,
    placement: Placement,
    library: StdCellLibrary,
    process: Process,
) -> RoutingEstimate:
    """HPWL-based routing estimate for a placed flat module (vectorized).

    Pin positions come from the placement coordinate arrays; per-net
    bounding boxes are ``minimum/maximum.reduceat`` reductions over the
    pin-center arrays sorted by net id.
    """
    view = net_view(module, library)
    names, coords = rect_arrays(placement.cells)
    pos = dict(zip(names, range(len(names))))
    try:
        rows = np.fromiter(
            map(pos.__getitem__, (inst.name for inst in module.instances)),
            dtype=np.int64,
            count=view.n_instances,
        )
    except KeyError:
        missing = next(
            inst.name for inst in module.instances if inst.name not in pos
        )
        raise LayoutError(
            f"instance {missing} missing from placement"
        ) from None
    cx = 0.5 * (coords[:, 0] + coords[:, 2])
    cy = 0.5 * (coords[:, 1] + coords[:, 3])

    # (net, pin-position) entry arrays across every connected pin.
    net_parts: List[np.ndarray] = []
    row_parts: List[np.ndarray] = []
    for group in view.groups:
        group_rows = rows[group.inst_idx]
        for table in (group.in_ids, group.out_ids):
            width = table.shape[1] if table.ndim == 2 else 0
            if width:
                net_parts.append(table.ravel())
                row_parts.append(np.repeat(group_rows, width))
    if net_parts:
        enet = np.concatenate(net_parts)
        erow = np.concatenate(row_parts)
        connected = enet >= 0
        enet = enet[connected]
        erow = erow[connected]
    else:
        enet = np.empty(0, dtype=np.int64)
        erow = np.empty(0, dtype=np.int64)

    if len(enet):
        grouping = np.argsort(enet, kind="stable")
        sorted_nets = enet[grouping]
        net_ids, starts = np.unique(sorted_nets, return_index=True)
        counts = np.diff(np.append(starts, len(sorted_nets)))
        px = cx[erow[grouping]]
        py = cy[erow[grouping]]
        min_x = np.minimum.reduceat(px, starts)
        max_x = np.maximum.reduceat(px, starts)
        min_y = np.minimum.reduceat(py, starts)
        max_y = np.maximum.reduceat(py, starts)
        lengths = (max_x - min_x) + (max_y - min_y)
        multi = counts >= 2
        lengths[~multi] = 0.0
        caps = np.where(multi, process.wire_cap_ff_per_um * lengths, 0.0)
        net_names = [view.net_names[i] for i in net_ids]
        net_lengths = dict(zip(net_names, lengths.tolist()))
        net_caps = dict(zip(net_names, caps.tolist()))
        total = float(lengths.sum())
    else:
        net_lengths = {}
        net_caps = {}
        total = 0.0

    layers, congestion = _supply_and_congestion(placement, process, total)
    return RoutingEstimate(
        total_wirelength_um=total,
        net_lengths_um=net_lengths,
        net_caps_ff=net_caps,
        congestion=congestion,
        layers_assumed=layers,
    )
