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
placement's coordinate array — min/max reductions grouped by net index
instead of a Python dict of point lists — and hands the lengths and
caps on as arrays over the view's net ids, the indexing STA and power
already use.  The original scalar walk is kept in
``tests/reference/layout.py``; the equivalence suite pins the per-net
lengths and caps of the two bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import LayoutError
from ..rtl.ir import Module
from ..rtl.netview import net_view
from ..tech.process import Process
from ..tech.stdcells import StdCellLibrary
from .sdp import Placement


@dataclass(frozen=True, eq=False)
class RoutingEstimate:
    """Routing summary for one placed design.

    ``net_lengths_um`` and ``net_caps_ff`` are float64 arrays over the
    net ids of ``net_view(module, library)``; a net with fewer than two
    placed pins reads 0.  ``net_caps_ff`` is the ``wire_load`` that
    post-layout STA and power take.
    """

    total_wirelength_um: float
    net_lengths_um: np.ndarray
    net_caps_ff: np.ndarray
    congestion: float
    layers_assumed: int = 4


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

    Pin positions come from the placement's coordinate array; per-net
    bounding boxes are ``minimum/maximum.reduceat`` reductions over the
    pin-center arrays sorted by net id.
    """
    view = net_view(module, library)
    pos = dict(zip(placement.names, range(len(placement.names))))
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
    coords = placement.coords
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

    net_lengths = np.zeros(view.n_nets)
    net_caps = np.zeros(view.n_nets)
    total = 0.0
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
        net_lengths[net_ids] = lengths
        net_caps[net_ids] = np.where(
            multi, process.wire_cap_ff_per_um * lengths, 0.0
        )
        # Summed over the pinned nets only, in net-id order: the
        # pairwise sum of the compact array is what the records pin.
        total = float(lengths.sum())

    layers, congestion = _supply_and_congestion(placement, process, total)
    return RoutingEstimate(
        total_wirelength_um=total,
        net_lengths_um=net_lengths,
        net_caps_ff=net_caps,
        congestion=congestion,
        layers_assumed=layers,
    )
