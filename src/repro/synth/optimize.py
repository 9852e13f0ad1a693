"""Netlist optimization passes run after elaboration.

The generators emit correct-by-construction gate netlists, but like any
elaborated RTL they contain logic whose outputs nothing reads and nets
too heavily loaded to drive from one gate.  These passes do what Design
Compiler's ``compile`` would:

* :func:`sweep_dead_logic` — remove gates (and registers) driving
  nothing observable, transitively;
* :func:`buffer_high_fanout` — split nets above a fanout threshold with
  buffer repeaters so post-layout slews stay sane, iterated to a fixed
  point so the repeater source nets themselves respect the limit.

Constant propagation is not a pass: no combinational gate of a
generated macro has every input on a TIE-driven net, so folding gates
whose inputs are all constant would remove nothing.
``tests/test_synth_optimize.py`` checks that over the architecture
space.

All passes preserve functional equivalence; the test suite proves it by
gate-level simulation before/after on random vectors.

Implementation: the pipeline compiles the module's
:class:`~repro.rtl.netview.NetView` once, derives a shared integer
driver/load index (:class:`_SynthIndex`) from its stacked pin tables,
and edits the connection tables of the module it is given in place —
no pass rebuilds the :class:`~repro.rtl.ir.Module` instance by
instance.  The original per-pass rebuild implementations are kept
verbatim in ``tests/reference/optimize.py``; the equivalence suite in
``tests/test_layout_kernels.py`` pins the in-place passes to them
netlist-for-netlist.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SynthesisError
from ..rtl.ir import Instance, Module
from ..rtl.netview import (
    NetView,
    check_pins,
    check_single_driver,
    net_view,
    pin_matrices,
)
from ..tech.stdcells import StdCellLibrary

#: Above this fanout a net gets split with repeaters.
FANOUT_LIMIT = 48

#: Repeater-tree depth guard for :func:`buffer_high_fanout`: the pass
#: iterates until no non-clock net exceeds the limit, which converges in
#: ``log_limit(max_fanout)`` rounds; hitting the guard means a cycle in
#: the pass logic, not a big netlist.
_FANOUT_MAX_ROUNDS = 16


# ---------------------------------------------------------------------------
# Shared integer driver/load index.
# ---------------------------------------------------------------------------


class _SynthIndex:
    """Driver/load tables for the pass pipeline, built once per module.

    Derived from the compiled :class:`NetView`: padded ``(n_inst,
    max_pins)`` matrices of input/output net ids, a per-net driver
    array, and per-instance cell flags.  Passes edit the module's
    connection dicts in place through the index, and :meth:`commit`
    applies the alive mask and appended instances to its instance list.
    Original-instance indices stay valid for the whole pipeline because
    :meth:`commit` replaces the list rather than reordering it.
    """

    def __init__(self, module: Module, library: StdCellLibrary) -> None:
        self.module = module
        self.library = library
        view = net_view(module, library)
        self.net_names: List[str] = list(view.net_names)
        self.net_id: Dict[str, int] = dict(view.net_id)
        n_inst = view.n_instances
        self.in_mat, self.out_mat = pin_matrices(view)
        self.driver_of = np.full(len(self.net_names), -1, dtype=np.int64)
        rows, slots = np.nonzero(self.out_mat >= 0)
        self.driver_of[self.out_mat[rows, slots]] = rows
        self.is_seq = np.zeros(n_inst, dtype=bool)
        self.is_mem = np.zeros(n_inst, dtype=bool)
        for g in view.groups:
            self.is_seq[g.inst_idx] = g.cell.is_sequential
            self.is_mem[g.inst_idx] = g.cell.is_memory
        # Structural guards shared with Module.validate: a multiply-
        # driven net would be silently resolved to the last driver by
        # the tables above (and the dead sweep could then delete the
        # other driver); a misnamed pin on a dead gate would vanish
        # before the end-of-pipeline validate ever saw it.  Keep both
        # failures as loud as the flow's old pre-synthesis validate().
        check_single_driver(view)
        check_pins(view)
        self.cells = view.cells  # per-instance resolved Cell objects
        self.instances = module.instances  # snapshot; never reordered
        self.alive = np.ones(n_inst, dtype=bool)
        #: Repeaters appended by fanout buffering.  They live outside
        #: the matrices: the fanout pass tracks its chains itself.
        self.appended: List[Instance] = []
        self._appended_names: Dict[str, None] = {}

    def ensure_net(self, name: str) -> int:
        """The id of net ``name``, numbered after the known nets if new."""
        nid = self.net_id.get(name)
        if nid is None:
            nid = self.net_id[name] = len(self.net_names)
            self.net_names.append(name)
        return nid

    def append_instance(self, name: str, ref: str, conn: Dict[str, str]) -> Instance:
        """Append a new leaf instance and return it."""
        if name in self.module._instance_names or name in self._appended_names:
            raise SynthesisError(f"{self.module.name}: duplicate instance {name}")
        inst = Instance(name=name, ref=ref, conn=dict(conn))
        self.appended.append(inst)
        self._appended_names[name] = None
        return inst

    def commit(self) -> None:
        """Apply the alive mask + appended instances to the module, then
        rebuild its net set to ports + clocks + referenced nets, in the
        insertion order a pass-by-pass module rebuild would produce."""
        module = self.module
        kept = [inst for inst, keep in zip(self.instances, self.alive) if keep]
        kept += self.appended
        module.instances = kept
        module._instance_names = dict.fromkeys(i.name for i in kept)
        nets: Dict[str, None] = dict.fromkeys(module.ports)
        for net in module.clock_nets:
            if net not in nets:
                nets[net] = None
        for inst in kept:
            for net in inst.conn.values():
                if net not in nets:
                    nets[net] = None
        module.nets = nets
        module._revision += 1

    def install_view(self) -> None:
        """Cache on the committed module the view these tables
        describe, so ``validate``, STA and power skip the walk: nets
        renumbered to the pruned order, rows of surviving instances
        from the matrices, appended ones from their connections, row
        ints shared with ``net_id`` as a walk's are."""
        module = self.module
        names = list(module.nets)
        net_id = dict(zip(names, range(len(names))))
        remap = np.fromiter(
            map(net_id.get, self.net_names, repeat(-1)), np.int64, len(self.net_names)
        )
        remap = np.append(remap, -1)
        keep = np.nonzero(self.alive)[0]
        cells = list(map(self.cells.__getitem__, keep.tolist()))
        mats = [remap[self.in_mat[keep]], remap[self.out_mat[keep]]]
        extra_cells = [self.library.cell(inst.ref) for inst in self.appended]
        for k, side in enumerate(("inputs", "outputs")):
            width = mats[k].shape[1]
            rows = []
            for inst, cell in zip(self.appended, extra_cells):
                pins = getattr(cell, side)
                ids = [net_id.get(inst.conn.get(p), -1) for p in pins]
                rows.append(ids + [-1] * (width - len(pins)))
            rows = np.array(rows, dtype=np.int64).reshape(-1, width)
            mats[k] = np.concatenate([mats[k], rows])
        cells += extra_cells
        view = NetView.from_tables(module, self.library, names, net_id, cells, *mats)
        module._net_view_cache = {id(self.library): view}


# ---------------------------------------------------------------------------
# Dead-logic sweep.
# ---------------------------------------------------------------------------


def _sweep_dead_logic_core(index: _SynthIndex) -> int:
    """Mark dead gates in the index; returns the removed count.  Runs
    before any instance is removed or appended."""
    live = index.is_seq | index.is_mem
    driver_of = index.driver_of
    ports = [index.net_id[p] for p in index.module.output_ports if p in index.net_id]
    drivers = driver_of[ports]
    live[drivers[drivers >= 0]] = True
    frontier = np.nonzero(live)[0]
    in_mat = index.in_mat
    while len(frontier):
        nets = in_mat[frontier]
        nets = np.unique(nets[nets >= 0])
        drivers = driver_of[nets]
        drivers = np.unique(drivers[drivers >= 0])
        frontier = drivers[~live[drivers]]
        live[frontier] = True
    index.alive = live
    return len(live) - int(live.sum())


# ---------------------------------------------------------------------------
# Fanout buffering.
# ---------------------------------------------------------------------------


def _buffer_high_fanout_core(index: _SynthIndex, limit: int) -> int:
    """Split heavy nets with repeaters, iterated to a fixed point."""
    clock_ids = {
        index.net_id[n] for n in index.module.clock_nets if n in index.net_id
    }

    # Live load edges grouped by net: net ``uniq[i]``'s edges occupy
    # ``[starts[i], bounds[i+1])``, in matrix order (instance-major,
    # pin-slot minor) — the enumeration order of the reference pass's
    # loads dict.
    erows, eslots = np.nonzero(index.in_mat >= 0)
    keep = index.alive[erows]
    erows, eslots = erows[keep], eslots[keep]
    nets = index.in_mat[erows, eslots]
    order = np.argsort(nets, kind="stable")
    nets, erows, eslots = nets[order], erows[order], eslots[order]
    uniq, starts = np.unique(nets, return_index=True)
    bounds = np.append(starts, len(nets))

    counts = np.diff(bounds)
    in_w = index.in_mat.shape[1]
    heavy = [
        u
        for u in np.nonzero(counts > limit)[0]
        if int(uniq[u]) not in clock_ids
    ]
    if not heavy:
        return 0
    # First-appearance order of the reference loads dict: the edge spans
    # keep matrix order, so the span's first edge positions the net.
    heavy.sort(
        key=lambda u: int(erows[starts[u]]) * in_w + int(eslots[starts[u]])
    )

    origs = index.instances
    added = 0
    pin_names: Dict[str, List[str]] = {}
    #: source net name -> repeaters driven by it (input to later rounds).
    pending: Dict[str, List[Instance]] = {}

    for u in heavy:
        net = index.net_names[int(uniq[u])]
        s, e = int(starts[u]), int(bounds[u + 1])
        sink_gates = erows[s:e]
        sink_slots = eslots[s:e]
        n_branches = -(-(e - s) // limit)
        branch_bufs: List[Instance] = []
        for b in range(n_branches):
            branch_net = f"{net}__rep{b}"
            branch_bufs.append(index.append_instance(
                f"fanout_buf_{added}", "BUF_X8", {"A": net, "Y": branch_net}
            ))
            added += 1
            branch_id = index.ensure_net(branch_net)
            for gate, slot in zip(
                sink_gates[b::n_branches], sink_slots[b::n_branches]
            ):
                gate = int(gate)
                cell = index.cells[gate]
                pins = pin_names.get(cell.name)
                if pins is None:
                    pins = pin_names[cell.name] = list(cell.input_caps_ff)
                origs[gate].conn[pins[int(slot)]] = branch_net
                index.in_mat[gate, int(slot)] = branch_id
        pending[net] = branch_bufs

    # Fixed point: a net with more than limit**2 sinks leaves its
    # repeater source net above the limit — keep splitting the repeater
    # inputs until every non-clock net is within it.
    round_no = 0
    while True:
        over = {net: bufs for net, bufs in pending.items() if len(bufs) > limit}
        if not over:
            break
        round_no += 1
        if round_no > _FANOUT_MAX_ROUNDS:
            raise SynthesisError(
                f"fanout buffering did not converge within "
                f"{_FANOUT_MAX_ROUNDS} rounds (limit {limit})"
            )
        pending = {}
        for net, bufs in over.items():
            n_branches = -(-len(bufs) // limit)
            branch_bufs = []
            for b in range(n_branches):
                branch_net = f"{net}__l{round_no}rep{b}"
                branch_bufs.append(index.append_instance(
                    f"fanout_buf_{added}", "BUF_X8", {"A": net, "Y": branch_net}
                ))
                added += 1
                for sink in bufs[b::n_branches]:
                    sink.conn["A"] = branch_net
            pending[net] = branch_bufs

    return added


# ---------------------------------------------------------------------------
# Public passes.
# ---------------------------------------------------------------------------


def sweep_dead_logic(
    module: Module, library: StdCellLibrary
) -> Tuple[Module, int]:
    """Remove cells whose outputs reach no output port and no register
    or memory input (transitively), editing ``module`` in place; returns
    it and the removed count."""
    index = _SynthIndex(module, library)
    removed = _sweep_dead_logic_core(index)
    if removed:
        index.commit()
    return module, removed


def buffer_high_fanout(
    module: Module,
    library: StdCellLibrary,
    limit: int = FANOUT_LIMIT,
) -> Tuple[Module, int]:
    """Insert BUF_X8 repeaters on nets whose sink count exceeds
    ``limit``, editing ``module`` in place; returns it and the repeater
    count.  Sinks are re-distributed round-robin and the pass repeats
    until no non-clock net (including the repeater source nets) exceeds
    the limit.  Clock nets are exempt (clock-tree synthesis is modelled
    as ideal)."""
    index = _SynthIndex(module, library)
    added = _buffer_high_fanout_core(index, limit)
    if added:
        index.commit()
    return module, added


def optimize(
    module: Module,
    library: StdCellLibrary,
    vt: Optional[str] = None,
) -> Tuple[Module, Dict[str, int]]:
    """Run the pass pipeline on ``module`` in place; returns it and a
    stats dict.

    One :class:`_SynthIndex` is shared by the dead-logic sweep and
    fanout buffering, and the view it describes is installed on the
    result.  ``vt`` re-flavors the surviving combinational cells to that
    threshold flavor as a third pass (see :func:`repro.synth.vt.swap_vt`);
    ``None`` leaves the mapping's flavors untouched.
    """
    stats: Dict[str, int] = {}
    index = _SynthIndex(module, library)
    stats["dead_gates_removed"] = _sweep_dead_logic_core(index)
    stats["fanout_buffers_added"] = _buffer_high_fanout_core(index, FANOUT_LIMIT)
    if stats["dead_gates_removed"] or stats["fanout_buffers_added"]:
        index.commit()
        index.install_view()
    if vt is not None:
        from .vt import swap_vt

        stats["vt_swapped"] = swap_vt(module, library, vt)
    module.validate(library)
    return module, stats
