"""SRAM array generator with MCR banking.

The memory array holds ``height * mcr`` weight rows by ``width`` bit
columns.  Compute rows use the configured DCIM bitcell (6T+read port,
8T latch, or 12T OAI variants); the additional ``mcr - 1`` storage banks
use compact 6T cells, which is how MCR-aware macros raise on-macro
memory density (paper Section II.A).

The array module is *structural only*: its instances carry area, leakage
and read energy for the physical flows (layout, power), while its
read-data outputs (``wb`` nets, complement weights) are the hand-off
point to the digital logic.  Gate-level simulation drives those nets
directly — the bitcell contents come from the behavioural weight store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...errors import SynthesisError
from ..ir import Module, NetlistBuilder


@dataclass(frozen=True)
class ArrayStats:
    """Cell counts for reporting and layout planning."""

    compute_cells: int
    storage_cells: int
    rows: int
    cols: int
    banks: int


def generate_memory_array(
    height: int,
    width: int,
    mcr: int,
    memcell: str = "DCIM6T",
    name: Optional[str] = None,
) -> tuple[Module, ArrayStats]:
    """Build the bitcell array.

    Ports
    -----
    ``wl[0..height*mcr-1]``  word lines (one per physical row)
    ``bl[0..width-1]``       write bit lines
    ``wb[r*width*mcr + b*width + c]`` is exposed flattened as
    ``wb[...]``: complement read data, one net per compute row x bank x
    column, consumed by the multiplier muxes.
    """
    if memcell not in ("DCIM6T", "DCIM8T", "DCIM12T", "RRAM_HYB"):
        raise SynthesisError(f"unknown memory cell {memcell!r}")
    if height < 1 or width < 1 or mcr < 1:
        raise SynthesisError("array dimensions must be positive")

    b = NetlistBuilder(name or f"mem_array_{height}x{width}_mcr{mcr}")
    n_rows = height * mcr
    wl = b.inputs("wl", n_rows)
    bl = b.inputs("bl", width)
    wb = b.outputs("wb", height * mcr * width)

    compute = 0
    storage = 0
    for row in range(height):
        for bank in range(mcr):
            phys_row = row * mcr + bank
            # Bank 0 must be a compute-capable cell; extra banks can be
            # compact 6T storage whose read data routes to the mux.
            cell = memcell if bank == 0 else "SRAM6T"
            for col in range(width):
                idx = (row * mcr + bank) * width + col
                b.module.add_instance(
                    f"cell_r{phys_row}_c{col}",
                    cell,
                    {"WL": wl[phys_row], "BL": bl[col], "RD": wb[idx]},
                )
                if bank == 0:
                    compute += 1
                else:
                    storage += 1
    stats = ArrayStats(
        compute_cells=compute,
        storage_cells=storage,
        rows=n_rows,
        cols=width,
        banks=mcr,
    )
    return b.finish(), stats
