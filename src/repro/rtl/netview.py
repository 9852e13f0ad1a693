"""Compiled, integer-indexed view of a flat netlist.

The analysis kernels (switching-activity propagation, STA arrival
passes, power summation) all walk the same flat module.  Doing that
walk with ``inst.conn.get(pin)`` / ``library.cell(name)`` dictionary
chasing costs tens of millions of hash lookups per subcircuit-library
build, so this module compiles the netlist **once** into plain integer
tables:

* every net gets a dense id (``net_id``/``net_names``);
* every leaf instance gets its resolved cell object plus tuples of
  input/output net ids in the cell's pin order (``-1`` = unconnected);
* instances are additionally grouped by cell type (`CellGroup`) with
  the pin tables stacked into numpy matrices, which lets the timing and
  power kernels emit whole edge/energy arrays with a handful of
  vectorized operations instead of a Python loop per pin.

Views are cached on the module object and invalidated automatically
when the module is mutated (see :attr:`repro.rtl.ir.Module.revision`),
so ``validate`` + STA + activity + power on the same flattened module
pay for one compilation pass, not four traversals.  The passes that
edit a module in place keep that one pass valid: the synthesis
pipeline installs the view its own tables describe
(:func:`repro.synth.optimize.optimize`), and a ref-only edit
(:meth:`repro.rtl.ir.Module.set_refs` — Vt swaps, drive resizing)
re-resolves just the cells on the same net ids and pin rows.  Neither
goes through :class:`NetView`'s constructor, which is the one walk.
"""

from __future__ import annotations

import sys
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SynthesisError
from ..tech.stdcells import Cell, StdCellLibrary


class CellGroup:
    """All instances of one cell type, pin tables stacked."""

    __slots__ = ("cell", "inst_idx", "in_ids", "out_ids")

    def __init__(
        self,
        cell: Cell,
        inst_idx: List[int],
        in_ids: List[Tuple[int, ...]],
        out_ids: List[Tuple[int, ...]],
    ) -> None:
        self.cell = cell
        self.inst_idx = np.asarray(inst_idx, dtype=np.int64)
        n = len(inst_idx)
        self.in_ids = np.asarray(in_ids, dtype=np.int64).reshape(
            n, len(cell.input_caps_ff)
        )
        self.out_ids = np.asarray(out_ids, dtype=np.int64).reshape(
            n, len(cell.outputs)
        )

    def __len__(self) -> int:
        return len(self.inst_idx)


class NetView:
    """Integer tables for one flat module against one cell library."""

    __slots__ = (
        "module",
        "library",
        "revision",
        "net_names",
        "net_id",
        "cells",
        "in_ids",
        "out_ids",
        "groups",
        "derived",
    )

    def __init__(self, module, library: StdCellLibrary) -> None:
        self.module = module
        self.library = library
        self.revision = module.revision
        names = list(module.nets)
        self.net_names: List[str] = names
        nid = {name: i for i, name in enumerate(names)}
        self.net_id: Dict[str, int] = nid

        cells: List[Cell] = []
        in_ids: List[Tuple[int, ...]] = []
        out_ids: List[Tuple[int, ...]] = []
        cell_cache: Dict[str, Cell] = {}
        info_cache: Dict[str, tuple] = {}
        grouping: Dict[str, List[int]] = {}
        lib_cell = library.cell
        nid_get = nid.__getitem__
        for idx, inst in enumerate(module.instances):
            ref = inst.ref
            if type(ref) is not str:
                ref = inst.cell_name  # raises for hierarchical instances
            info = info_cache.get(ref)
            if info is None:
                cell = cell_cache[ref] = lib_cell(ref)
                pins = tuple(cell.input_caps_ff)
                outs = cell.outputs
                info = info_cache[ref] = (
                    cell,
                    pins,
                    outs,
                    itemgetter(*pins) if pins else None,
                    len(pins) == 1,
                    itemgetter(*outs) if outs else None,
                    len(outs) == 1,
                )
            cell, pins, outs, in_get, in1, out_get, out1 = info
            conn = inst.conn
            # Fast path: every pin connected (itemgetter + C-level map);
            # a KeyError means an unconnected pin — fall back to -1 fill.
            try:
                if in_get is None:
                    in_row: Tuple[int, ...] = ()
                elif in1:
                    in_row = (nid[in_get(conn)],)
                else:
                    in_row = tuple(map(nid_get, in_get(conn)))
            except KeyError:
                cg = conn.get
                in_row = tuple(
                    -1 if (net := cg(p)) is None else nid[net] for p in pins
                )
            try:
                if out_get is None:
                    out_row: Tuple[int, ...] = ()
                elif out1:
                    out_row = (nid[out_get(conn)],)
                else:
                    out_row = tuple(map(nid_get, out_get(conn)))
            except KeyError:
                cg = conn.get
                out_row = tuple(
                    -1 if (net := cg(o)) is None else nid[net] for o in outs
                )
            in_ids.append(in_row)
            out_ids.append(out_row)
            cells.append(cell)
            grouping.setdefault(ref, []).append(idx)
        self.cells = cells
        self.in_ids = in_ids
        self.out_ids = out_ids
        self.groups: List[CellGroup] = [
            CellGroup(
                cell_cache[name],
                idxs,
                [in_ids[i] for i in idxs],
                [out_ids[i] for i in idxs],
            )
            for name, idxs in grouping.items()
        ]
        #: Scratch space for kernels to stash per-view derived structures
        #: (timing arrays, activity schedules, power constants, ...).
        self.derived: Dict[str, object] = {}

    @classmethod
    def from_tables(
        cls, module, library: StdCellLibrary, net_names: List[str],
        net_id: Dict[str, int], cells: List[Cell], in_mat: np.ndarray,
        out_mat: np.ndarray, rows: Optional[tuple] = None,
    ) -> "NetView":
        """The view a walk of ``module`` would build, from tables the
        caller already holds: the nets, each instance's cell, and its
        pin net ids as padded matrices (see :func:`pin_matrices`).
        Groups follow the instances' refs in first-appearance order, as
        the walk's do.  ``rows`` are the per-instance ``(in_ids,
        out_ids)`` when the caller has them; otherwise they are cut
        from the group tables, holding ``net_id``'s int objects as a
        walk's rows do."""
        view = cls.__new__(cls)
        view.module, view.library = module, library
        view.revision = module.revision
        view.net_names, view.net_id, view.cells = net_names, net_id, cells
        refs = [inst.ref for inst in module.instances]
        first = dict.fromkeys(refs)
        code = {ref: i for i, ref in enumerate(first)}
        codes = np.fromiter(map(code.__getitem__, refs), np.int64, len(refs))
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes, minlength=len(code))).tolist()
        view.groups = []
        start = 0
        for end in ends:
            idx = order[start:end]
            cell = cells[idx[0]]
            view.groups.append(CellGroup(
                cell, idx, in_mat[idx, : len(cell.input_caps_ff)],
                out_mat[idx, : len(cell.outputs)],
            ))
            start = end
        if rows is None:
            ints = np.array([*net_id.values(), -1], dtype=object)
            # The groups cut ``order`` in turn, so a row's place among the
            # groups' rows is its position in ``order``.
            at = np.empty(len(cells), dtype=np.int64)
            at[order] = np.arange(len(cells))
            rows = []
            for table in ("in_ids", "out_ids"):
                built: list = []
                for g in view.groups:
                    ids = getattr(g, table)
                    cols = [ints[ids[:, j]].tolist() for j in range(ids.shape[1])]
                    built += zip(*cols) if cols else [()] * len(g)
                rows.append(list(map(built.__getitem__, at.tolist())))
        view.in_ids, view.out_ids = rows
        view.derived = {}
        return view

    @property
    def n_nets(self) -> int:
        return len(self.net_names)

    @property
    def n_instances(self) -> int:
        return len(self.cells)


def pin_matrices(view: NetView) -> Tuple[np.ndarray, np.ndarray]:
    """The view's input and output net ids as padded ``(n_instances,
    max_pins)`` matrices in instance order (``-1`` = no net)."""
    mats = []
    for table in ("in_ids", "out_ids"):
        width = max((getattr(g, table).shape[1] for g in view.groups), default=0)
        mat = np.full((view.n_instances, max(width, 1)), -1, dtype=np.int64)
        for g in view.groups:
            rows = getattr(g, table)
            mat[g.inst_idx, : rows.shape[1]] = rows
        mats.append(mat)
    return mats[0], mats[1]


def _reflavored(view: NetView):
    """``view`` after :meth:`~repro.rtl.ir.Module.set_refs` edits: the
    same nets and pin rows, each instance's current cell, regrouped —
    or ``None`` when a new cell orders its pins differently."""
    module, library = view.module, view.library
    refs = [inst.ref for inst in module.instances]
    if len(refs) != len(view.cells):
        return None
    cell_of = {ref: library.cell(ref) for ref in dict.fromkeys(refs)}
    for old, ref in {(c.name, r) for c, r in zip(view.cells, refs) if c.name != r}:
        a, b = library.cell(old), cell_of[ref]
        if a.inputs != b.inputs or a.outputs != b.outputs:
            return None
    return NetView.from_tables(
        module, library, view.net_names, view.net_id,
        list(map(cell_of.__getitem__, refs)), *pin_matrices(view),
        rows=(view.in_ids, view.out_ids),
    )


def view_driver_counts(view: NetView) -> np.ndarray:
    """Per-net driver count over the view's stacked output tables."""
    all_out = [g.out_ids.ravel() for g in view.groups if g.out_ids.size]
    if all_out:
        ids = np.concatenate(all_out)
        ids = ids[ids >= 0]
        return np.bincount(ids, minlength=view.n_nets)
    return np.zeros(view.n_nets, dtype=np.int64)


def check_single_driver(view: NetView) -> np.ndarray:
    """Raise on multiply-driven nets; returns the per-net driver counts.

    Shared by :meth:`Module.validate` and the synthesis-pass index — a
    multiply-driven net would otherwise be silently resolved to one
    driver by any table keyed on nets.  The slow
    :meth:`Module.net_drivers` walk is only replayed to produce its
    detailed message when a violation is detected.
    """
    counts = view_driver_counts(view)
    if (counts > 1).any():
        view.module.net_drivers(view.library)  # raises with the pair
        raise SynthesisError(  # pragma: no cover - defensive
            f"{view.module.name}: multiply driven nets"
        )
    return counts


def check_pins(view: NetView) -> None:
    """Raise when any instance connects a pin its cell does not have."""
    valid_by_ref: Dict[str, frozenset] = {}
    for group in view.groups:
        cell = group.cell
        valid_by_ref[cell.name] = frozenset(cell.input_caps_ff) | frozenset(
            cell.outputs
        )
    module = view.module
    for inst in module.instances:
        valid_pins = valid_by_ref[inst.ref]
        if not valid_pins.issuperset(inst.conn):
            bad = next(p for p in inst.conn if p not in valid_pins)
            raise SynthesisError(
                f"{module.name}: {inst.name} has no pin {bad!r} "
                f"on {inst.ref}"
            )


def net_view(module, library: StdCellLibrary) -> NetView:
    """The (cached) compiled view of ``module`` against ``library``.

    The cache key is the library's identity; the entry is rebuilt when
    the module has been mutated since compilation, and re-resolved
    without a walk when every edit since was a
    :meth:`~repro.rtl.ir.Module.set_refs`.  In a batch worker
    whose parent published view tensors over shared memory (see
    :mod:`repro.shm.netview`), a cache miss first probes the published
    segments and hydrates zero-copy instead of re-walking the module;
    a process that never imported that module never probes.
    """
    cache = getattr(module, "_net_view_cache", None)
    if cache is None:
        cache = module._net_view_cache = {}
    view = cache.get(id(library))
    if view is None or view.revision != module.revision:
        first, last = module._ref_edits
        if view is not None and first <= view.revision and last == module.revision:
            view = _reflavored(view)
            if view is not None:
                cache[id(library)] = view
                return view
        shm = sys.modules.get("repro.shm.netview")
        if shm is not None and shm._ATTACHMENTS is not None:
            view = shm.try_attach_net_view(module, library)
            if view is not None:
                cache[id(library)] = view
                return view
        view = cache[id(library)] = NetView(module, library)
    return view
