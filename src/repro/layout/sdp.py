"""Structured-data-path (SDP) placement.

The paper replaces free-form APR placement with a scalable SDP script
for Cadence Innovus: SRAM cells go on a regular grid, "the gaps between
SRAM columns" are filled with each column's adder/accumulator cells, and
peripheral logic rings the array (Section III.D).  This module is that
script's offline twin.  Given the flat *physical* macro netlist (array +
digital core), it:

1. partitions instances by their structural role, parsed from the
   hierarchical names the generators emit (``array/cell_r{r}_c{c}``,
   ``core/col{c}_...``, ``core/ofu{g}_...``, WL-driver cells at the core
   top level);
2. solves a small floorplan: outline area = cell area / utilization at a
   target aspect ratio, a WL-driver strip on the left, an OFU/periphery
   strip at the bottom, and ``W`` uniform column slots above it;
3. places SRAM cells of column ``c`` as ``fold`` adjacent vertical
   stacks inside slot ``c`` and shelf-packs the column's logic into the
   remaining gap — the structured interleaving that keeps product wires
   short and routing uniform.

The packing kernels run over precomputed per-partition width arrays:
cell widths and areas are resolved once per unique cell type, shelf rows
are cut with prefix-sum searches (:func:`_pack_rows`) instead of a
per-instance retry loop, and the SRAM grid is laid out with whole-column
index arithmetic.  The per-instance scalar packer it replaced,
``_shelf_pack``, is kept in ``tests/reference/layout.py`` — the pinned
reference the layout-kernel equivalence suite packs against.

The result is a :class:`Placement` the router, DRC, LVS and GDS writer
consume: the instance names in placement order and one ``(n, 4)``
coordinate array, which every one of them reads directly, so no
per-instance rectangle object is ever built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import LayoutError
from ..rtl.ir import Instance, Module
from ..tech.stdcells import StdCellLibrary
from .geometry import Rect

_ARRAY_RE = re.compile(r"(?:^|/)cell_r(\d+)_c(\d+)$")
_COL_RE = re.compile(r"(?:^|/)col(\d+)_")
_WL_RE = re.compile(r"(?:^|/)(inreg|inv|buf|wldrv|wlpre)_\d+$")


#: Placement knobs (the TCL script's variables): standard-cell and SRAM
#: row heights, and how many times a floorplan candidate that does not
#: fit grows its height by 8 % before the scan gives up on it.
ROW_HEIGHT_UM = 1.8
SRAM_ROW_HEIGHT_UM = 1.0
MAX_ITERATIONS = 8


@dataclass(eq=False)
class Placement:
    """Placed design: the outline, one ``x0, y0, x1, y1`` row of the
    ``(n, 4)`` float64 ``coords`` per instance in ``names`` (placement
    order), and the region map."""

    outline: Rect
    names: List[str]
    coords: np.ndarray
    regions: Dict[str, Rect]
    utilization: float
    fold: int
    column_pitch_um: float

    @property
    def area_um2(self) -> float:
        return self.outline.area

    @property
    def width_um(self) -> float:
        return self.outline.width

    @property
    def height_um(self) -> float:
        return self.outline.height

    def describe(self) -> str:
        return (
            f"outline {self.width_um:.1f} x {self.height_um:.1f} um "
            f"({self.area_um2 / 1e6:.4f} mm^2), utilization "
            f"{self.utilization:.2f}, fold {self.fold}, "
            f"column pitch {self.column_pitch_um:.2f} um"
        )


@dataclass
class _Partition:
    array: Dict[Tuple[int, int], Instance] = field(default_factory=dict)
    columns: Dict[int, List[Instance]] = field(default_factory=dict)
    wl_driver: List[Instance] = field(default_factory=list)
    periphery: List[Instance] = field(default_factory=list)


def _partition(module: Module) -> _Partition:
    part = _Partition()
    # Cheap substring gates in front of the full regexes: on a
    # hundred-thousand-cell macro almost every name hits exactly one
    # category, and the gates cut the three-regex cascade per instance
    # to (usually) a single match.
    for inst in module.instances:
        name = inst.name
        if "cell_r" in name:
            m = _ARRAY_RE.search(name)
            if m:
                part.array[(int(m.group(1)), int(m.group(2)))] = inst
                continue
        if "col" in name:
            m = _COL_RE.search(name)
            if m:
                part.columns.setdefault(int(m.group(1)), []).append(inst)
                continue
        if _WL_RE.search(name):
            part.wl_driver.append(inst)
            continue
        part.periphery.append(inst)
    if not part.array:
        raise LayoutError("no array cells found; place_macro needs the "
                          "physical view (generate_macro_with_array)")
    if not part.columns:
        raise LayoutError("no column logic found in module")
    return part


def _pack_rows(
    widths: np.ndarray, region: Rect, row_height: float
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Vectorized shelf packing: greedy rows cut with prefix-sum
    searches.  Returns ``(x0s, x1s, y0s)`` coordinate arrays in item
    order, or ``None`` when the region overflows."""
    n = len(widths)
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty, empty
    region_w = region.width
    if float(widths.max()) > region_w + 1e-9:
        return None
    prefix = np.cumsum(widths)
    limit = region_w + 1e-9

    row_starts: List[int] = [0]
    bases: List[float] = [0.0]
    start = 0
    base = 0.0
    while True:
        cut = int(np.searchsorted(prefix, base + limit, side="right"))
        # A row always takes at least one item (max width fits, checked
        # above); the guard absorbs last-bit rounding at the boundary.
        cut = max(cut, start + 1)
        if cut >= n:
            break
        row_starts.append(cut)
        bases.append(float(prefix[cut - 1]))
        start = cut
        base = bases[-1]

    n_rows = len(row_starts)
    if region.y0 + n_rows * row_height > region.y1 + 1e-6:
        return None
    row_id = np.zeros(n, dtype=np.int64)
    row_id[row_starts[1:]] = 1
    row_id = np.cumsum(row_id)
    base_arr = np.asarray(bases, dtype=np.float64)[row_id]
    shifted = np.concatenate(([0.0], prefix[:-1]))
    x0s = region.x0 + (shifted - base_arr)
    x1s = region.x0 + (prefix - base_arr)
    y0s = region.y0 + row_id * row_height
    return x0s, x1s, y0s


@dataclass
class _PartitionArrays:
    """Per-partition width/area arrays, resolved once per placement."""

    part: _Partition
    peri_names: List[str]
    peri_widths: np.ndarray
    peri_area: float
    wl_names: List[str]
    wl_widths: np.ndarray
    wl_area: float
    col_names: Dict[int, List[str]]
    col_widths: Dict[int, np.ndarray]
    col_areas: Dict[int, float]
    array_names: Dict[int, List[str]]
    array_rows: Dict[int, np.ndarray]
    array_widths: Dict[int, np.ndarray]
    array_area: float
    n_rows: int
    n_cols: int
    sram_w: float
    max_col_cell_w: float
    total_cell_area: float


def _precompute(
    part: _Partition, library: StdCellLibrary, row_height: float
) -> _PartitionArrays:
    pack_w: Dict[str, float] = {}
    nominal_w: Dict[str, float] = {}
    raw_w: Dict[str, float] = {}
    areas: Dict[str, float] = {}

    def resolve(cell_name: str) -> None:
        if cell_name not in pack_w:
            cell = library.cell(cell_name)
            pack_w[cell_name] = cell.width_um or cell.area_um2 / row_height
            nominal_w[cell_name] = cell.width_um or 1.0
            raw_w[cell_name] = cell.width_um
            areas[cell_name] = cell.area_um2

    def group(instances: List[Instance]) -> Tuple[List[str], np.ndarray, float]:
        names = [i.name for i in instances]
        refs = [i.ref for i in instances]  # leaf instances: ref is the cell name
        for ref in refs:
            if ref not in pack_w:
                resolve(ref)
        widths = np.fromiter(
            map(pack_w.__getitem__, refs), dtype=np.float64, count=len(refs)
        )
        area = float(sum(map(areas.__getitem__, refs)))
        return names, widths, area

    peri_names, peri_widths, peri_area = group(part.periphery)
    wl_names, wl_widths, wl_area = group(part.wl_driver)

    col_names: Dict[int, List[str]] = {}
    col_widths: Dict[int, np.ndarray] = {}
    col_areas: Dict[int, float] = {}
    max_col_cell_w = 0.0
    for col, insts in part.columns.items():
        names, widths, area = group(insts)
        col_names[col] = names
        col_widths[col] = widths
        col_areas[col] = area
        nominal = max(nominal_w[i.cell_name] for i in insts)
        max_col_cell_w = max(max_col_cell_w, nominal)

    sram_w = 0.0
    array_area = 0.0
    by_col: Dict[int, Tuple[List[str], List[int], List[str]]] = {}
    for (r, c), inst in part.array.items():
        ref = inst.ref  # leaf instances: ref is the cell name
        resolve(ref)
        sram_w = max(sram_w, raw_w[ref] or 0.55)
        array_area += areas[ref]
        names, rws, refs = by_col.setdefault(c, ([], [], []))
        names.append(inst.name)
        rws.append(r)
        refs.append(ref)
    array_names: Dict[int, List[str]] = {}
    array_rows: Dict[int, np.ndarray] = {}
    array_widths: Dict[int, np.ndarray] = {}
    for c, (names, rws, refs) in by_col.items():
        array_names[c] = names
        array_rows[c] = np.asarray(rws, dtype=np.int64)
        widths = np.asarray(
            [min(raw_w[ref] or sram_w, sram_w) for ref in refs],
            dtype=np.float64,
        )
        array_widths[c] = widths

    total = array_area + sum(col_areas.values()) + wl_area + peri_area
    return _PartitionArrays(
        part=part,
        peri_names=peri_names,
        peri_widths=peri_widths,
        peri_area=peri_area,
        wl_names=wl_names,
        wl_widths=wl_widths,
        wl_area=wl_area,
        col_names=col_names,
        col_widths=col_widths,
        col_areas=col_areas,
        array_names=array_names,
        array_rows=array_rows,
        array_widths=array_widths,
        array_area=array_area,
        n_rows=1 + max(r for r, _ in part.array),
        n_cols=1 + max(c for _, c in part.array),
        sram_w=sram_w,
        max_col_cell_w=max_col_cell_w,
        total_cell_area=total,
    )


def place_macro(module: Module, library: StdCellLibrary) -> Placement:
    """Run SDP placement on a flat physical macro module."""
    part = _partition(module)
    data = _precompute(part, library, ROW_HEIGHT_UM)
    return _scan_floorplans(data)


def _scan_floorplans(data: "_PartitionArrays") -> Placement:
    """Scan candidate floorplans over precomputed partition arrays and
    keep the minimum-area one that places cleanly.

    Split out of :func:`place_macro` so :class:`~repro.layout.arena.
    LayoutArena` can rerun the scan against cached partition arrays —
    and, once a floorplan is known, replay just the winning
    :func:`_try_place` call (the placement is a pure function of
    ``(data, width, height)``, so the replay is bit-identical).
    """
    sram_h = SRAM_ROW_HEIGHT_UM
    row_h = ROW_HEIGHT_UM
    worst_col_area = max(data.col_areas.values())
    array_h = data.n_rows * sram_h + sram_h

    # Scan gap widths: narrow gaps give a tall skinny macro (column
    # logic binds), wide gaps a short fat one (array height binds).
    # Keep the minimum-area floorplan that places cleanly — this is the
    # area/aspect trade the SDP TCL script exposes as a variable.
    best: Optional[Placement] = None
    gap_lo = data.max_col_cell_w + 0.2
    candidates = [gap_lo * f for f in (1.0, 1.25, 1.6, 2.0, 2.6, 3.4)]
    for gap_w in candidates:
        pitch = data.sram_w + 0.1 + gap_w
        core_h = max(array_h, worst_col_area / (gap_w * 0.85))
        width = data.n_cols * pitch + max(4.0, 0.02 * data.n_cols * pitch)
        peri_h = data.peri_area / (width * 0.70) + 2 * row_h
        height = core_h + peri_h + 2 * row_h
        if best is not None and width * height >= best.area_um2:
            # Retries only grow the height, so this candidate can no
            # longer beat the incumbent minimum-area floorplan.
            continue
        for attempt in range(MAX_ITERATIONS):
            placement = _try_place(data, width, height)
            if placement is not None:
                break
            height *= 1.08
        if placement is None:
            continue
        if best is None or placement.area_um2 < best.area_um2:
            best = placement
    if best is None:
        raise LayoutError(
            f"SDP placement failed to converge after scanning "
            f"{len(candidates)} floorplans"
        )
    return best


def _try_place(
    data: _PartitionArrays, width: float, height: float
) -> Optional[Placement]:
    row_h = ROW_HEIGHT_UM
    sram_h = SRAM_ROW_HEIGHT_UM
    sram_w = data.sram_w
    n_rows, n_cols = data.n_rows, data.n_cols

    # Bottom periphery strip (OFU, output regs, alignment, ties).
    peri_h = max(
        row_h,
        math.ceil(data.peri_area / max(width * 0.9, 1.0) / row_h) * row_h * 1.35,
    )
    # Left WL-driver strip.
    core_h = height - peri_h
    if core_h <= 4 * row_h:
        return None
    wl_w = max(3.0, data.wl_area / max(core_h * 0.8, 1.0) * 1.3)

    col_region_w = width - wl_w
    pitch = col_region_w / n_cols

    # Fold the SRAM stack so it fits the core height.
    fold = max(1, math.ceil(n_rows * sram_h / core_h))
    if fold * sram_w + 0.1 + data.max_col_cell_w > pitch:
        return None
    stack_rows = math.ceil(n_rows / fold)

    regions = {
        "periphery": Rect(0.0, 0.0, width, peri_h),
        "wl_driver": Rect(0.0, peri_h, wl_w, height),
        "columns": Rect(wl_w, peri_h, width, height),
    }

    names: List[str] = []
    coord_parts: List[np.ndarray] = []

    def pack(
        group_names: List[str], widths: np.ndarray, region: Rect
    ) -> bool:
        packed = _pack_rows(widths, region, row_h)
        if packed is None:
            return False
        x0s, x1s, y0s = packed
        names.extend(group_names)
        coord_parts.append(
            np.column_stack((x0s, y0s, x1s, y0s + row_h))
        )
        return True

    if not pack(data.peri_names, data.peri_widths, regions["periphery"]):
        return None
    if not pack(data.wl_names, data.wl_widths, regions["wl_driver"]):
        return None

    for col in sorted(data.col_widths):
        x0 = wl_w + col * pitch
        gap = Rect(x0 + fold * sram_w + 0.1, peri_h, x0 + pitch, height)
        # SRAM stacks (SDP grid: exact positions, no packing).
        rows = data.array_rows.get(col)
        if rows is not None and len(rows):
            stack = rows // stack_rows
            row_in_stack = rows % stack_rows
            cx = x0 + stack * sram_w
            cy = peri_h + row_in_stack * sram_h
            if float(cy.max()) + sram_h > height + 1e-6:
                return None
            w = data.array_widths[col]
            names.extend(data.array_names[col])
            coord_parts.append(np.column_stack((cx, cy, cx + w, cy + sram_h)))
        if not pack(data.col_names[col], data.col_widths[col], gap):
            return None

    coords = (
        np.concatenate(coord_parts)
        if coord_parts
        else np.empty((0, 4), dtype=np.float64)
    )
    outline = Rect(0.0, 0.0, width, height)
    return Placement(
        outline=outline,
        names=names,
        coords=coords,
        regions=regions,
        utilization=data.total_cell_area / outline.area,
        fold=fold,
        column_pitch_um=pitch,
    )
