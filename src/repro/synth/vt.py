"""Vt-swap repair passes.

The multi-Vt grid (see :mod:`repro.tech.stdcells`) turns leakage into a
search axis: a mapped netlist can be re-flavored cell by cell without
touching its structure, because every ``(base, drive)`` family point
exists at all four threshold flavors with identical logic.  These
passes are the netlist-level half of that trade:

* :func:`swap_vt` re-flavors the combinational cells wholesale (the
  ``--vt hvt``/``--vt lvt`` compile modes);
* :func:`recover_leakage` demotes high-slack cells to hvt one
  slack-ordered bisection at a time — the classic post-fix leakage
  recovery loop — using :func:`repro.sta.analysis.instance_slacks`.

The flavor orderings these passes rely on (delay up, leakage down from
ulvt to hvt) are checked by ``check_vt_library`` in
``tests/test_vt_passes.py``, on the shipped library and on mutants
with a stale table.

Sequential and memory cells are excluded from the automated passes:
the architecture estimator prices register clocking and
bitcell arrays from calibrated constants that do not re-scale with
flavor, so re-flavoring them would desynchronize estimation from
signoff.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import LibraryError, SynthesisError
from ..rtl.ir import Module
from ..sta.analysis import instance_slacks, minimum_period_ns
from ..tech.stdcells import (
    VT_FLAVORS,
    Cell,
    StdCellLibrary,
    parse_variant_name,
    variant_name,
)

#: Extra timing margin (ns) a recovery swap set must preserve — keeps
#: leakage recovery from eating the entire slack budget signoff needs.
RECOVERY_MARGIN_NS = 0.0


def _same_function(a: Cell, b: Cell) -> bool:
    """True when two cells compute the same logic on the same pins."""
    return (
        a.inputs == b.inputs
        and a.outputs == b.outputs
        and a.truth_table == b.truth_table
    )


def _swap_target(
    library: StdCellLibrary, cell_name: str, vt: str
) -> Optional[str]:
    """Name of ``cell_name``'s family variant at flavor ``vt``, or None
    when the cell is outside the ladder or the grid point is absent."""
    parsed = parse_variant_name(cell_name)
    if parsed is None:
        return None
    base, _, drive = parsed
    target = variant_name(base, vt, drive)
    if target == cell_name or target not in library:
        return None
    return target


def _apply_swaps(
    module: Module,
    library: StdCellLibrary,
    swaps: Dict[str, str],
) -> None:
    """Point the named instances at new cells (function-checked)."""
    if not swaps:
        return
    by_name = {inst.name: inst for inst in module.instances}
    edits = [(by_name[inst_name], target) for inst_name, target in swaps.items()]
    for inst, target in edits:
        if not _same_function(library.cell(inst.cell_name), library.cell(target)):
            raise SynthesisError(
                f"vt swap {inst.cell_name} -> {target} on "
                f"{inst.name} changes the cell's logic function"
            )
    module.set_refs(edits)


def swap_vt(module: Module, library: StdCellLibrary, vt: str) -> int:
    """Re-flavor every laddered combinational instance of ``module`` to
    ``vt``.

    In-place, structure-preserving: only ``Instance.ref`` changes
    (through :meth:`~repro.rtl.ir.Module.set_refs`), and
    every swap is checked to preserve the cell's truth table (a library
    whose flavors disagree logically is rejected with
    :class:`SynthesisError` rather than silently miscompiled).  Returns
    the number of instances re-flavored.
    """
    if vt not in VT_FLAVORS:
        raise LibraryError(
            f"unknown vt flavor {vt!r}; known: {sorted(VT_FLAVORS)}"
        )
    swaps: Dict[str, str] = {}
    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        if cell.is_memory or cell.is_sequential:
            continue
        target = _swap_target(library, inst.cell_name, vt=vt)
        if target is not None:
            swaps[inst.name] = target
    _apply_swaps(module, library, swaps)
    return len(swaps)


def recover_leakage(
    module: Module,
    library: StdCellLibrary,
    clock_period_ns: float,
    wire_load: Optional[np.ndarray] = None,
    derate: float = 1.0,
    margin_ns: float = RECOVERY_MARGIN_NS,
    target_vt: str = "hvt",
) -> int:
    """Demote positive-slack combinational cells to ``target_vt``.

    The classic leakage-recovery loop: rank instances by setup slack at
    ``clock_period_ns`` (worst signoff ``derate``), demote everything
    whose slack can absorb the flavor's delay penalty, then re-run STA.
    If the combined swap set overshoots, the *least*-slack half of it is
    reverted and the check repeated — a bisection that converges in
    O(log n) STA runs instead of one run per cell.  Returns the number
    of instances left demoted.
    """
    flavor = VT_FLAVORS.get(target_vt)
    if flavor is None:
        raise LibraryError(
            f"unknown vt flavor {target_vt!r}; known: {sorted(VT_FLAVORS)}"
        )
    slacks = instance_slacks(
        module, library, clock_period_ns, wire_load=wire_load, derate=derate
    )
    by_name = {inst.name: inst for inst in module.instances}
    candidates: List[Tuple[float, str, str]] = []
    for name, slack in slacks.items():
        if slack <= margin_ns:
            continue
        inst = by_name[name]
        cell = library.cell(inst.cell_name)
        if cell.is_sequential or cell.is_memory:
            continue
        if cell.vt == target_vt:
            continue
        target = _swap_target(library, inst.cell_name, vt=target_vt)
        if target is not None:
            candidates.append((slack, name, target))
    if not candidates:
        return 0
    # Most slack first: when the set is halved, the marginal swaps go.
    candidates.sort(key=lambda c: (-c[0], c[1]))

    old_refs = {name: by_name[name].ref for _, name, _ in candidates}
    keep = candidates
    _apply_swaps(module, library, {n: t for _, n, t in keep})
    while keep:
        period = minimum_period_ns(
            module, library, wire_load=wire_load, derate=derate
        )
        if period <= clock_period_ns - margin_ns:
            return len(keep)
        dropped = keep[len(keep) // 2:]
        keep = keep[: len(keep) // 2]
        module.set_refs((by_name[name], old_refs[name]) for _, name, _ in dropped)
    return 0
