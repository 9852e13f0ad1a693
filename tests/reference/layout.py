"""Reference copies of the scalar layout kernels.

``sweep_overlaps`` (``repro.layout.geometry``), ``_shelf_pack``
(``repro.layout.sdp``) and ``estimate_routing_reference``
(``repro.layout.route``) are the per-rectangle, per-instance and
per-net walks the vectorized kernels replaced, kept verbatim so
``tests/test_layout_kernels.py`` can pin ``overlap_pairs``, the placer's
``_pack_rows`` and ``estimate_routing`` to them.  Only the imports
(absolute; the shapes come from the shipped modules) and the docstring
cross-references, now fully qualified, differ, and the scalar geometry
they call (``Rect.overlaps``, ``Rect.center``, ``bounding_box`` and
``Process.wire_cap_ff``, which nothing in the package calls) sits here
as the functions ``overlaps``, ``center``, ``bounding_box`` and
``wire_cap_ff``.  ``estimate_routing_reference`` also reads each cell's
``Rect`` from the placement's name and coordinate arrays, and returns
its per-net dicts in a :class:`RoutingReference`, because the shipped
estimate now carries arrays over net ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import LayoutError
from repro.layout.geometry import Rect
from repro.layout.route import _supply_and_congestion
from repro.layout.sdp import Placement
from repro.rtl.ir import Instance, Module
from repro.tech.process import Process
from repro.tech.stdcells import StdCellLibrary


def overlaps(a: Rect, b: Rect, eps: float = 1e-9) -> bool:
    """Strict interior overlap (shared edges do not count)."""
    return (
        a.x0 < b.x1 - eps
        and b.x0 < a.x1 - eps
        and a.y0 < b.y1 - eps
        and b.y0 < a.y1 - eps
    )


def center(rect: Rect) -> Tuple[float, float]:
    return (0.5 * (rect.x0 + rect.x1), 0.5 * (rect.y0 + rect.y1))


def bounding_box(points: Iterable[Tuple[float, float]]) -> Rect:
    pts = list(points)
    if not pts:
        raise LayoutError("bounding box of no points")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return Rect(min(xs), min(ys), max(xs), max(ys))


def wire_cap_ff(process: Process, length_um: float) -> float:
    return process.wire_cap_ff_per_um * length_um


def sweep_overlaps(rects: List[Tuple[str, Rect]]) -> Iterator[Tuple[str, str]]:
    """Yield overlapping pairs with a sort-and-sweep over x intervals.

    ``O(n log n + k)`` in practice for row-based placements.  This is
    the scalar **reference implementation**: :func:`repro.layout.geometry.overlap_pairs`
    computes the same pair set (same order) over coordinate arrays and
    is what :mod:`repro.layout.drc` actually runs; the equivalence suite
    in ``tests/test_layout_kernels.py`` pins the two together.
    """
    events = sorted(rects, key=lambda item: item[1].x0)
    active: List[Tuple[str, Rect]] = []
    for name, rect in events:
        still_active: List[Tuple[str, Rect]] = []
        for other_name, other in active:
            if other.x1 > rect.x0 + 1e-9:
                still_active.append((other_name, other))
                if overlaps(rect, other):
                    yield (other_name, name)
        active = still_active
        active.append((name, rect))


def _shelf_pack(
    instances: List[Instance],
    library: StdCellLibrary,
    region: Rect,
    row_height: float,
    placed: Dict[str, Rect],
) -> bool:
    """Left-to-right, bottom-to-top shelf packing.  Returns False when
    the region overflows (caller grows the floorplan and retries).

    Scalar **reference implementation** — the placer runs
    :func:`repro.layout.sdp._pack_rows` over precomputed width arrays instead; the
    equivalence suite packs both and compares the shelves.
    """
    x = region.x0
    y = region.y0
    for inst in instances:
        cell = library.cell(inst.cell_name)
        w = cell.width_um or cell.area_um2 / row_height
        if w > region.width + 1e-9:
            return False
        if x + w > region.x1 + 1e-9:
            x = region.x0
            y += row_height
        if y + row_height > region.y1 + 1e-6:
            return False
        placed[inst.name] = Rect(x, y, x + w, y + row_height)
        x += w
    return True


@dataclass(frozen=True)
class RoutingReference:
    """The reference estimate: per-net dicts keyed by net name."""

    total_wirelength_um: float
    net_lengths_um: Dict[str, float]
    net_caps_ff: Dict[str, float]
    congestion: float
    layers_assumed: int = 4


def estimate_routing_reference(
    module: Module,
    placement: Placement,
    library: StdCellLibrary,
    process: Process,
) -> RoutingReference:
    """Scalar reference implementation (per-net Python dict walk), kept
    verbatim to pin :func:`repro.layout.route.estimate_routing`."""
    cells = {
        name: Rect(*row)
        for name, row in zip(placement.names, placement.coords.tolist())
    }
    pin_positions: Dict[str, List[Tuple[float, float]]] = {}
    for inst in module.instances:
        rect = cells.get(inst.name)
        if rect is None:
            raise LayoutError(f"instance {inst.name} missing from placement")
        pin = center(rect)
        for net in inst.conn.values():
            pin_positions.setdefault(net, []).append(pin)

    net_lengths: Dict[str, float] = {}
    net_caps: Dict[str, float] = {}
    total = 0.0
    for net, points in pin_positions.items():
        if len(points) < 2:
            net_lengths[net] = 0.0
            net_caps[net] = 0.0
            continue
        box = bounding_box(points)
        length = box.width + box.height
        net_lengths[net] = length
        net_caps[net] = wire_cap_ff(process, length)
        total += length

    layers, congestion = _supply_and_congestion(placement, process, total)
    return RoutingReference(
        total_wirelength_um=total,
        net_lengths_um=net_lengths,
        net_caps_ff=net_caps,
        congestion=congestion,
        layers_assumed=layers,
    )
