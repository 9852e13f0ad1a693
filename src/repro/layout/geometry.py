"""Planar geometry primitives for placement, routing and DRC.

Two tiers live here:

* scalar :class:`Rect` objects: the outline and floorplan regions;
* the vectorized :func:`overlap_pairs` kernel DRC runs on a placement's
  coordinate array — a grid-binned sweep that replaces the per-pair
  overlap tests (the single hottest loop of the implementation flow)
  while producing the exact pair set, in the exact emission order, of
  the scalar sort-and-sweep it replaced (``sweep_overlaps`` and its
  ``overlaps`` predicate, in ``tests/reference/layout.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import LayoutError


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, ``(x0, y0)`` lower-left inclusive."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise LayoutError(f"degenerate rect {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height


# ---------------------------------------------------------------------------
# Vectorized kernels (coordinate-array tier).
# ---------------------------------------------------------------------------


def _expand_runs(starts: np.ndarray, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-row ranges ``[starts[i], ends[i])`` into flat
    ``(row_index, position)`` pair arrays."""
    counts = np.maximum(ends - starts, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    positions = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)
    return rows, positions


def overlap_pairs(
    names: List[str], coords: np.ndarray, eps: float = 1e-9
) -> List[Tuple[str, str]]:
    """All strictly-overlapping rectangle pairs, vectorized.

    Produces exactly the pairs (and the emission order) of the scalar
    ``sweep_overlaps`` reference: pairs come out sorted by the
    x-sorted event rank of the later rectangle, then of the earlier one,
    each pair as ``(earlier_name, later_name)``.

    The sweep is grid-binned: rectangles are assigned to x-columns at
    least as wide as the widest rectangle (so each touches at most two
    columns), candidates inside a column come from a y-sorted interval
    expansion, and the exact overlap predicate is evaluated on the
    candidate arrays in one shot.
    """
    n = len(names)
    if n < 2:
        return []
    x0 = np.ascontiguousarray(coords[:, 0])
    y0 = np.ascontiguousarray(coords[:, 1])
    x1 = np.ascontiguousarray(coords[:, 2])
    y1 = np.ascontiguousarray(coords[:, 3])

    # Event ranks of the scalar sweep: stable sort by x0.
    order = np.argsort(x0, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)

    # X-columns: at least as wide as the widest rect (every rect spans
    # at most two columns), at most ~1k columns across the extent.
    min_x = float(x0.min())
    extent = float(x1.max()) - min_x
    bin_w = max(float((x1 - x0).max()), extent / 1024.0, eps)
    b_lo = np.floor((x0 - min_x) / bin_w).astype(np.int64)
    b_hi = np.floor((x1 - min_x) / bin_w).astype(np.int64)

    second = b_hi != b_lo
    entry_rect = np.concatenate([np.arange(n, dtype=np.int64), np.nonzero(second)[0]])
    entry_bin = np.concatenate([b_lo, b_hi[second]])

    # Group entries by column, candidates via y-interval expansion.
    grouping = np.argsort(entry_bin, kind="stable")
    sorted_bins = entry_bin[grouping]
    cuts = np.nonzero(np.diff(sorted_bins))[0] + 1
    group_starts = np.concatenate([[0], cuts])
    group_ends = np.concatenate([cuts, [len(sorted_bins)]])

    cand_a: List[np.ndarray] = []
    cand_b: List[np.ndarray] = []
    for s, e in zip(group_starts, group_ends):
        if e - s < 2:
            continue
        members = entry_rect[grouping[s:e]]
        ys = y0[members]
        local = np.argsort(ys, kind="stable")
        members = members[local]
        ys = ys[local]
        tops = y1[members]
        # For each member i, members i+1..end_i start below i's top.
        run_end = np.searchsorted(ys, tops - eps, side="left")
        rows, cols = _expand_runs(
            np.arange(1, len(members) + 1, dtype=np.int64), run_end
        )
        if len(rows):
            cand_a.append(members[rows])
            cand_b.append(members[cols])
    if not cand_a:
        return []
    a = np.concatenate(cand_a)
    b = np.concatenate(cand_b)

    # Exact strict-interior overlap predicate on the candidates.
    keep = (
        (x0[a] < x1[b] - eps)
        & (x0[b] < x1[a] - eps)
        & (y0[a] < y1[b] - eps)
        & (y0[b] < y1[a] - eps)
    )
    a = a[keep]
    b = b[keep]
    if not len(a):
        return []

    ra, rb = rank[a], rank[b]
    lo = np.minimum(ra, rb)
    hi = np.maximum(ra, rb)
    keys = np.unique(hi * n + lo)  # dedupe + scalar emission order
    lo = keys % n
    hi = keys // n
    first = order[lo]
    second_ = order[hi]
    return [(names[i], names[j]) for i, j in zip(first, second_)]
