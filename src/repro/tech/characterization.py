"""Custom-cell characterization flow (paper Fig. 3, left column).

Real SynDCIM characterizes custom layouts with SPICE and emits
NLDM-style Liberty tables.  Here the "circuit simulator" is the linear
delay/slew model embedded in each :class:`~repro.tech.stdcells.Cell`,
sampled over a (input-slew x output-load) grid — producing lookup tables
with the same shape a .lib would carry, which the subcircuit library and
STA then consume.

The slew model used throughout the repo:

* ``delay = d0 + r * C_load + SLEW_SENSITIVITY * slew_in``
* ``slew_out = SLEW_GAIN * (d0 + r * C_load)``

Both constants are typical of 40 nm libraries and keep characterization,
STA and the LUT-based search numerically consistent with one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..errors import LibraryError
from .process import Process
from .stdcells import Cell, TimingArc

#: Fraction of the input slew added to the propagation delay.
SLEW_SENSITIVITY = 0.25
#: Output slew as a multiple of the cell's loaded delay.
SLEW_GAIN = 1.1

#: Default characterization grid (ns, fF) — seven points each like a
#: typical foundry NLDM template.
DEFAULT_SLEWS_NS: Tuple[float, ...] = (0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32)
DEFAULT_LOADS_FF: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def arc_delay_ns(arc: TimingArc, slew_in_ns: float, load_ff: float) -> float:
    """Single authoritative delay equation used by every analysis layer."""
    return arc.d0_ns + arc.r_kohm * load_ff * 1e-3 + SLEW_SENSITIVITY * slew_in_ns


def arc_slew_ns(arc: TimingArc, load_ff: float) -> float:
    """Output transition time for a given load."""
    return SLEW_GAIN * (arc.d0_ns + arc.r_kohm * load_ff * 1e-3)


@dataclass(frozen=True)
class NLDMTable:
    """A 2-D lookup table indexed by (input slew, output load).

    ``values[i][j]`` corresponds to ``slews[i]`` and ``loads[j]``; a
    Liberty consumer interpolates it bilinearly, clamping outside the
    axes.
    """

    slews_ns: Tuple[float, ...]
    loads_ff: Tuple[float, ...]
    values: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.slews_ns):
            raise LibraryError("NLDM row count mismatch")
        if any(len(row) != len(self.loads_ff) for row in self.values):
            raise LibraryError("NLDM column count mismatch")
        if list(self.slews_ns) != sorted(self.slews_ns):
            raise LibraryError("NLDM slew axis must be ascending")
        if list(self.loads_ff) != sorted(self.loads_ff):
            raise LibraryError("NLDM load axis must be ascending")


@dataclass(frozen=True)
class CharacterizedArc:
    arc: TimingArc
    delay_table: NLDMTable
    slew_table: NLDMTable


@dataclass(frozen=True)
class CharacterizedCell:
    """A cell plus its characterization tables, ready for Liberty export."""

    cell: Cell
    corner_vdd: float
    arcs: Tuple[CharacterizedArc, ...]


def characterize_cell(
    cell: Cell,
    process: Process,
    vdd: float = 0.0,
) -> CharacterizedCell:
    """Run the characterization flow for one cell at a given voltage,
    over the :data:`DEFAULT_SLEWS_NS` x :data:`DEFAULT_LOADS_FF` grid.

    The cell's embedded linear model describes the nominal voltage; the
    alpha-power delay scale maps it to the requested corner, exactly as
    a multi-voltage characterization run would produce multiple .lib
    files from one layout.
    """
    vdd = vdd or process.vdd_nominal
    scale = process.delay_scale(vdd)
    slews_ns, loads_ff = DEFAULT_SLEWS_NS, DEFAULT_LOADS_FF
    characterized = []
    for arc in cell.arcs:
        delays = tuple(
            tuple(arc_delay_ns(arc, s, c) * scale for c in loads_ff) for s in slews_ns
        )
        # slew table rows must be indexed by input slew too; the model is
        # slew-independent so replicate rows.
        slew_rows = tuple(
            tuple(arc_slew_ns(arc, c) * scale for c in loads_ff) for _ in slews_ns
        )
        characterized.append(
            CharacterizedArc(
                arc=arc,
                delay_table=NLDMTable(slews_ns, loads_ff, delays),
                slew_table=NLDMTable(slews_ns, loads_ff, slew_rows),
            )
        )
    return CharacterizedCell(cell=cell, corner_vdd=vdd, arcs=tuple(characterized))


def characterize_library(
    cells: Sequence[Cell], process: Process, vdd: float = 0.0
) -> Dict[str, CharacterizedCell]:
    """Characterize a set of cells; returns name -> characterized view."""
    return {c.name: characterize_cell(c, process, vdd) for c in cells}
