"""Vt-swap and drive-resize repair passes.

The multi-Vt grid (see :mod:`repro.tech.stdcells`) turns leakage into a
search axis: a mapped netlist can be re-flavored cell by cell without
touching its structure, because every ``(base, drive)`` family point
exists at all four threshold flavors with identical logic.  These
passes are the netlist-level half of that trade:

* :func:`swap_vt` re-flavors the combinational cells wholesale (the
  ``--vt hvt``/``--vt lvt`` compile modes);
* :func:`resize_drive` walks instances up or down the drive ladder and
  loudly rejects a resize that breaks a period bound;
* :func:`recover_leakage` demotes high-slack cells to hvt one
  slack-ordered bisection at a time — the classic post-fix leakage
  recovery loop — using :func:`repro.sta.analysis.instance_slacks`;
* :func:`check_vt_library` validates the flavor orderings a library
  claims, so a stale or hand-edited leakage/delay table fails fast
  instead of silently mis-steering the recovery loop.

Sequential and memory cells are excluded from the automated passes by
default: the architecture estimator prices register clocking and
bitcell arrays from calibrated constants that do not re-scale with
flavor, so re-flavoring them would desynchronize estimation from
signoff.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Tuple

from ..errors import LibraryError, SynthesisError, TimingError
from ..rtl.ir import Module
from ..sta.analysis import instance_slacks, minimum_period_ns
from ..sta.graph import WireLoadFn
from ..tech.stdcells import (
    DRIVE_LADDER,
    VT_FLAVORS,
    VT_ORDER,
    Cell,
    StdCellLibrary,
    parse_variant_name,
    variant_name,
)

#: Extra timing margin (ns) a recovery swap set must preserve — keeps
#: leakage recovery from eating the entire slack budget signoff needs.
RECOVERY_MARGIN_NS = 0.0


def _truth_table(cell: Cell) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Exhaustive truth table over the cell's inputs, or None when the
    cell has no simulation function."""
    if cell.function is None:
        return None
    pins = cell.inputs
    rows: List[Tuple[int, ...]] = []
    for bits in product((0, 1), repeat=len(pins)):
        out = cell.function(dict(zip(pins, bits)))
        rows.append(tuple(int(out[o]) for o in cell.outputs))
    return tuple(rows)


def _same_function(a: Cell, b: Cell) -> bool:
    """True when two cells compute the same logic on the same pins."""
    if a.inputs != b.inputs or a.outputs != b.outputs:
        return False
    if a.function is b.function:
        return True
    return _truth_table(a) == _truth_table(b)


def _swap_target(
    library: StdCellLibrary,
    cell_name: str,
    vt: Optional[str] = None,
    drive: Optional[int] = None,
) -> Optional[str]:
    """Name of ``cell_name``'s family variant at (vt, drive), or None
    when the cell is outside the ladder or the grid point is absent."""
    parsed = parse_variant_name(cell_name)
    if parsed is None:
        return None
    base, cur_vt, cur_drive = parsed
    target = variant_name(
        base, vt if vt is not None else cur_vt,
        drive if drive is not None else cur_drive,
    )
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
                f"vt/drive swap {inst.cell_name} -> {target} on "
                f"{inst.name} changes the cell's logic function"
            )
    module.set_refs(edits)


def swap_vt(
    module: Module,
    library: StdCellLibrary,
    vt: str,
    include_sequential: bool = False,
) -> int:
    """Re-flavor every laddered instance of ``module`` to ``vt``.

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
        if cell.is_memory:
            continue
        if cell.is_sequential and not include_sequential:
            continue
        target = _swap_target(library, inst.cell_name, vt=vt)
        if target is not None:
            swaps[inst.name] = target
    _apply_swaps(module, library, swaps)
    return len(swaps)


def resize_drive(
    module: Module,
    library: StdCellLibrary,
    step: int,
    max_period_ns: Optional[float] = None,
    wire_load: Optional[WireLoadFn] = None,
    derate: float = 1.0,
    include_sequential: bool = False,
) -> int:
    """Shift every laddered instance ``step`` positions along the drive
    ladder (negative = downsize), clamped to the ladder's ends.

    When ``max_period_ns`` is given, the resized netlist's minimum
    period (under ``derate``) must not exceed it — a downsize that
    breaks the bound raises :class:`TimingError` and leaves the module
    untouched.  Returns the number of instances resized.
    """
    if step == 0:
        return 0
    swaps: Dict[str, str] = {}
    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        if cell.is_memory:
            continue
        if cell.is_sequential and not include_sequential:
            continue
        parsed = parse_variant_name(inst.cell_name)
        if parsed is None or parsed[2] not in DRIVE_LADDER:
            continue
        idx = DRIVE_LADDER.index(parsed[2])
        new_idx = max(0, min(len(DRIVE_LADDER) - 1, idx + step))
        target = _swap_target(
            library, inst.cell_name, drive=DRIVE_LADDER[new_idx]
        )
        if target is not None:
            swaps[inst.name] = target
    if not swaps:
        return 0
    if max_period_ns is not None:
        old_refs = {
            inst.name: inst.ref
            for inst in module.instances
            if inst.name in swaps
        }
        _apply_swaps(module, library, swaps)
        period = minimum_period_ns(
            module, library, wire_load=wire_load, derate=derate
        )
        if period > max_period_ns:
            module.set_refs(
                (inst, old_refs[inst.name])
                for inst in module.instances
                if inst.name in old_refs
            )
            raise TimingError(
                f"drive resize by {step:+d} pushes minimum period to "
                f"{period:.4f} ns > bound {max_period_ns:.4f} ns; "
                f"reverted"
            )
    else:
        _apply_swaps(module, library, swaps)
    return len(swaps)


def upsize_critical(
    module: Module,
    library: StdCellLibrary,
    clock_period_ns: float,
    wire_load: Optional[WireLoadFn] = None,
    derate: float = 1.0,
    max_moves: int = 64,
) -> int:
    """Bump the worst-slack instances one drive step up the ladder.

    Slack-ordered, bounded by ``max_moves``; only instances with
    negative slack at ``clock_period_ns`` move.  Returns the number of
    instances upsized (0 when timing is already met).
    """
    slacks = instance_slacks(
        module, library, clock_period_ns, wire_load=wire_load, derate=derate
    )
    violators = sorted(
        (s, name) for name, s in slacks.items() if s < 0.0
    )
    swaps: Dict[str, str] = {}
    by_name = {inst.name: inst for inst in module.instances}
    for _, name in violators[:max_moves]:
        inst = by_name[name]
        cell = library.cell(inst.cell_name)
        if cell.is_sequential or cell.is_memory:
            continue
        parsed = parse_variant_name(inst.cell_name)
        if parsed is None or parsed[2] not in DRIVE_LADDER:
            continue
        idx = DRIVE_LADDER.index(parsed[2])
        if idx + 1 >= len(DRIVE_LADDER):
            continue
        target = _swap_target(
            library, inst.cell_name, drive=DRIVE_LADDER[idx + 1]
        )
        if target is not None:
            swaps[name] = target
    _apply_swaps(module, library, swaps)
    return len(swaps)


def recover_leakage(
    module: Module,
    library: StdCellLibrary,
    clock_period_ns: float,
    wire_load: Optional[WireLoadFn] = None,
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


def check_vt_library(library: StdCellLibrary) -> int:
    """Validate the flavor orderings across the library's Vt grid.

    At every ``(base, drive)`` point where several flavors exist, delay
    must strictly increase and leakage strictly decrease from ulvt
    toward hvt (see :data:`repro.tech.stdcells.VT_ORDER`).  A violation
    means a stale or inconsistent characterization table — e.g. a
    leakage column scaled without re-deriving its neighbors — and
    raises :class:`LibraryError` naming the offending pair.  Returns
    the number of grid points checked.
    """
    grid: Dict[Tuple[str, int], Dict[str, Cell]] = {}
    for cell in library:
        parsed = parse_variant_name(cell.name)
        if parsed is None:
            continue
        grid.setdefault((parsed[0], parsed[2]), {})[parsed[1]] = cell

    def worst_d0(cell: Cell) -> float:
        return max((a.d0_ns for a in cell.arcs), default=0.0)

    checked = 0
    for (base, drive), flavors in sorted(grid.items()):
        present = [vt for vt in VT_ORDER if vt in flavors]
        if len(present) < 2:
            continue
        checked += 1
        for slow_vt, fast_vt in zip(present, present[1:]):
            slow = flavors[slow_vt]
            fast = flavors[fast_vt]
            if slow.arcs and fast.arcs and not worst_d0(slow) > worst_d0(fast):
                raise LibraryError(
                    f"stale timing table: {slow.name} (d0 "
                    f"{worst_d0(slow):.6g} ns) is not slower than "
                    f"{fast.name} (d0 {worst_d0(fast):.6g} ns)"
                )
            if not slow.leakage_nw < fast.leakage_nw:
                raise LibraryError(
                    f"stale leakage table: {slow.name} "
                    f"({slow.leakage_nw:.6g} nW) is not lower-leakage "
                    f"than {fast.name} ({fast.leakage_nw:.6g} nW)"
                )
    return checked
