"""Netlist optimization passes run after elaboration.

The generators emit correct-by-construction gate netlists, but like any
elaborated RTL they contain constants feeding real gates (zero-padded
adder inputs, tied-off selects) and logic whose outputs nothing reads.
These passes do what Design Compiler's ``compile`` would:

* :func:`propagate_constants` — fold gates whose inputs are the TIE
  cells (or nets proven constant) into constants, iteratively;
* :func:`sweep_dead_logic` — remove gates (and registers) driving
  nothing observable, transitively;
* :func:`buffer_high_fanout` — split nets above a fanout threshold with
  buffer repeaters so post-layout slews stay sane, iterated to a fixed
  point so the repeater source nets themselves respect the limit.

All passes preserve functional equivalence; the test suite proves it by
gate-level simulation before/after on random vectors.

Implementation: the pipeline compiles the module's
:class:`~repro.rtl.netview.NetView` once, derives a shared integer
driver/load index (:class:`_SynthIndex`) from its stacked pin tables,
and mutates the connection tables of a single working copy in place —
no pass rebuilds the :class:`~repro.rtl.ir.Module` instance by
instance.  The original per-pass rebuild implementations are kept
verbatim in ``tests/reference/optimize.py``; the equivalence suite in
``tests/test_layout_kernels.py`` pins the in-place passes to them
netlist-for-netlist.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import SynthesisError
from ..rtl.ir import CONST0, CONST1, Instance, Module
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
    array, and per-instance cell flags.  The source module is never
    mutated — a working copy is cloned lazily on the first structural
    change, passes edit its connection dicts in place through the index,
    and :meth:`commit` applies the alive mask and appended instances to
    the copy's instance list.  Original-instance indices stay valid for
    the whole pipeline because the snapshot list is never reordered.
    """

    def __init__(
        self, module: Module, library: StdCellLibrary, inplace: bool = False
    ) -> None:
        self.source = module
        self.library = library
        self.inplace = inplace
        view = net_view(module, library)
        self.view = view
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
        self.alive = np.ones(n_inst, dtype=bool)
        #: Instances appended by passes (tie cells, repeaters).  They
        #: live outside the matrices: ties have no inputs, and repeater
        #: chains are tracked by the fanout pass itself.
        self.appended: List[Instance] = []
        self.appended_alive: List[bool] = []
        self._appended_names: Dict[str, None] = {}
        self._work: Optional[Module] = None
        self._orig: Optional[List[Instance]] = None
        self._edge_pattern: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- working copy -----------------------------------------------------

    @property
    def mutated(self) -> bool:
        return self._work is not None

    def work(self) -> Module:
        """The working module: the source itself in ``inplace`` mode,
        otherwise a copy cloned on first mutation."""
        if self._work is None:
            self._work = self.source if self.inplace else _clone_flat(self.source)
            self._orig = self._work.instances  # snapshot; never reordered
        return self._work

    def result(self) -> Module:
        return self._work if self._work is not None else self.source

    def orig(self, idx: int) -> Instance:
        """Original instance ``idx`` of the working copy."""
        self.work()
        return self._orig[idx]

    def ensure_net(self, name: str) -> int:
        nid = self.net_id.get(name)
        if nid is None:
            nid = len(self.net_names)
            self.net_names.append(name)
            self.net_id[name] = nid
            if nid >= len(self.driver_of):
                # Grow geometrically: fanout buffering appends hundreds
                # of branch nets, and a full-array copy per net would be
                # quadratic.  Vectorized reads tolerate the slack (-1 =
                # undriven).
                grown = np.full(
                    max(2 * len(self.driver_of), nid + 1), -1, dtype=np.int64
                )
                grown[: len(self.driver_of)] = self.driver_of
                self.driver_of = grown
        return nid

    def append_instance(self, name: str, ref: str, conn: Dict[str, str]) -> int:
        """Append a new leaf instance; returns its global index."""
        work = self.work()
        if name in work._instance_names or name in self._appended_names:
            raise SynthesisError(f"{work.name}: duplicate instance {name}")
        inst = Instance(name=name, ref=ref, conn=dict(conn))
        self.appended.append(inst)
        self.appended_alive.append(True)
        self._appended_names[name] = None
        return len(self.alive) + len(self.appended) - 1

    def commit(self) -> None:
        """Apply the alive mask + appended instances to the working
        module.  Every caller follows up with ``_prune_nets``, which
        rebuilds the module's net table (including the appended
        instances' new nets) from scratch."""
        module = self.work()
        kept = [
            inst for inst, keep in zip(self._orig, self.alive) if keep
        ]
        kept += [
            inst for inst, keep in zip(self.appended, self.appended_alive) if keep
        ]
        module.instances = kept
        module._instance_names = dict.fromkeys(i.name for i in kept)
        module._revision += 1

    def install_view(self) -> None:
        """Cache on the committed, net-pruned result the view these
        tables describe, so ``validate``, STA and power skip the walk:
        nets renumbered to the pruned order, rows of surviving
        instances from the matrices, appended ones from their
        connections, row ints shared with ``net_id`` as a walk's are."""
        module = self.result()
        names = list(module.nets)
        net_id = dict(zip(names, range(len(names))))
        remap = np.fromiter(
            map(net_id.get, self.net_names, repeat(-1)), np.int64, len(self.net_names)
        )
        remap = np.append(remap, -1)
        keep = np.nonzero(self.alive)[0]
        cells = list(map(self.cells.__getitem__, keep.tolist()))
        mats = [remap[self.in_mat[keep]], remap[self.out_mat[keep]]]
        extra = [i for i, alive in zip(self.appended, self.appended_alive) if alive]
        extra_cells = [self.library.cell(inst.ref) for inst in extra]
        for k, side in enumerate(("inputs", "outputs")):
            width = mats[k].shape[1]
            rows = []
            for inst, cell in zip(extra, extra_cells):
                pins = getattr(cell, side)
                ids = [net_id.get(inst.conn.get(p), -1) for p in pins]
                rows.append(ids + [-1] * (width - len(pins)))
            rows = np.array(rows, dtype=np.int64).reshape(-1, width)
            mats[k] = np.concatenate([mats[k], rows])
        cells += extra_cells
        view = NetView.from_tables(module, self.library, names, net_id, cells, *mats)
        module._net_view_cache = {id(self.library): view}

    def alive_count(self) -> int:
        return int(self.alive.sum()) + sum(self.appended_alive)

    def net_spans(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Load edges grouped by net: ``(rows, slots, uniq, starts,
        bounds)`` — net ``uniq[i]``'s edges occupy ``[starts[i],
        bounds[i+1])`` of the edge arrays, in matrix order.  Both the
        constant-propagation worklist and the fanout pass's
        first-appearance ordering depend on this one derivation."""
        nets, rows, slots = self.load_edges()
        uniq, starts = np.unique(nets, return_index=True)
        bounds = np.append(starts, len(nets))
        return rows, slots, uniq, starts, bounds

    def load_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live load edges sorted by net id: ``(nets, rows, slots)``.

        Within one net the edges keep matrix order (instance-major,
        pin-slot minor) — the enumeration order of the reference
        passes' loads dict."""
        edges = self._edge_pattern
        if edges is None:
            # The -1 pattern of in_mat never changes (rewires replace
            # values, never connectivity slots), so the sparsity scan
            # runs once per index.
            edges = self._edge_pattern = np.nonzero(self.in_mat >= 0)
        rows, slots = edges
        keep = self.alive[rows]
        rows, slots = rows[keep], slots[keep]
        nets = self.in_mat[rows, slots]
        order = np.argsort(nets, kind="stable")
        return nets[order], rows[order], slots[order]


def _clone_flat(module: Module) -> Module:
    """Bulk copy of a flat module (fresh Instance/conn objects)."""
    out = Module(module.name)
    for port in module.ports.values():
        out.add_port(port.name, port.direction)
    out.set_clocks(module.clock_nets)
    nets = out.nets
    for net in module.nets:
        if net not in nets:
            nets[net] = None
    instances = out.instances
    names = out._instance_names
    for inst in module.instances:
        instances.append(Instance(name=inst.name, ref=inst.ref, conn=dict(inst.conn)))
        names[inst.name] = None
    out._revision += len(instances) + 1
    return out


def _prune_nets(module: Module) -> None:
    """Rebuild the net set to ports + clocks + referenced nets, in the
    insertion order a pass-by-pass module rebuild would produce."""
    nets: Dict[str, None] = {}
    for port in module.ports:
        nets[port] = None
    for net in module.clock_nets:
        if net not in nets:
            nets[net] = None
    for inst in module.instances:
        for net in inst.conn.values():
            if net not in nets:
                nets[net] = None
    module.nets = nets
    module._revision += 1


# ---------------------------------------------------------------------------
# Constant propagation.
# ---------------------------------------------------------------------------


def _propagate_constants_core(index: _SynthIndex) -> int:
    """Constant folding over the index; returns the dropped-gate count
    (the working copy is only created when something folds)."""
    in_mat = index.in_mat
    n_inst = len(index.alive)
    n_connected = (in_mat >= 0).sum(axis=1)

    eligible = np.zeros(n_inst, dtype=bool)
    for g in index.view.groups:
        cell = g.cell
        if cell.is_sequential or cell.is_memory or cell.function is None:
            continue
        if not cell.input_caps_ff:
            continue
        eligible[g.inst_idx] = True
    n_pins = np.asarray(
        [len(c.input_caps_ff) for c in index.cells], dtype=np.int64
    )
    # A gate with an unconnected input or no connected output never folds.
    eligible &= n_connected == n_pins
    eligible &= (index.out_mat >= 0).any(axis=1)

    values = np.full(len(index.net_names), np.int8(-1), dtype=np.int8)
    for name, val in ((CONST0, 0), (CONST1, 1)):
        nid = index.net_id.get(name)
        if nid is not None:
            values[nid] = val

    erows, _eslots, uniq, starts, bounds = index.net_spans()

    def span_of(net_id: int):
        i = int(np.searchsorted(uniq, net_id))
        if i < len(uniq) and uniq[i] == net_id:
            return int(bounds[i]), int(bounds[i + 1])
        return None

    remaining = n_connected.copy()
    foldable: List[int] = []
    queue: deque = deque()

    def feed(net_id: int) -> None:
        span = span_of(net_id)
        if span is None:
            return
        for gate in erows[span[0]: span[1]]:
            remaining[gate] -= 1
            if remaining[gate] == 0 and eligible[gate]:
                queue.append(int(gate))

    for name in (CONST0, CONST1):
        nid = index.net_id.get(name)
        if nid is not None:
            feed(nid)

    source = index.source
    net_id = index.net_id
    while queue:
        gate = queue.popleft()
        cell = index.cells[gate]
        conn = source.instances[gate].conn
        in_vals = {
            pin: int(values[net_id[conn[pin]]]) for pin in cell.input_caps_ff
        }
        outs = cell.function(in_vals)
        newly = False
        for pin, val in outs.items():
            net = conn.get(pin)
            if net is None:
                continue
            nid = net_id[net]
            if values[nid] >= 0:
                continue
            values[nid] = 1 if val else 0
            newly = True
            feed(nid)
        if newly:
            foldable.append(gate)

    if not foldable:
        return 0

    work = index.work()

    # Drop folded gates unless one of their outputs is a port net.
    dropped = 0
    for gate in foldable:
        cell = index.cells[gate]
        conn = index.orig(gate).conn
        if not any(conn.get(pin) in work.ports for pin in cell.outputs):
            index.alive[gate] = False
            dropped += 1

    # Every net proven constant (ports and the TIE nets excluded) is
    # remapped onto the matching TIE net.
    port_ids = {net_id[p] for p in work.ports if p in net_id}
    remap: Dict[str, str] = {}
    remap_ids: List[int] = []
    for nid in np.nonzero(values >= 0)[0]:
        nid = int(nid)
        name = index.net_names[nid]
        if name in (CONST0, CONST1) or nid in port_ids:
            continue
        remap[name] = CONST1 if values[nid] else CONST0
        remap_ids.append(nid)

    needs_tie = {CONST0: False, CONST1: False}
    if remap_ids:
        for name in (CONST0, CONST1):
            index.ensure_net(name)
        remap_arr = np.full(len(index.net_names), -1, dtype=np.int64)
        for nid in remap_ids:
            remap_arr[nid] = index.net_id[remap[index.net_names[nid]]]
        for mat in (index.in_mat, index.out_mat):
            targets = remap_arr[np.where(mat >= 0, mat, 0)]
            hit = (mat >= 0) & (targets >= 0)
            mat[hit] = targets[hit]

        # Rewire the conn dicts of every instance touching a remapped net.
        affected: Set[int] = set()
        for nid in remap_ids:
            span = span_of(nid)
            if span is not None:
                affected.update(int(g) for g in erows[span[0]: span[1]])
            drv = int(index.driver_of[nid])
            if drv >= 0:
                affected.add(drv)
        for gate in affected:
            if not index.alive[gate]:
                continue
            conn = index.orig(gate).conn
            for pin, net in conn.items():
                new = remap.get(net)
                if new is not None:
                    conn[pin] = new
                    needs_tie[new] = True

    # Guarantee TIE drivers exist when referenced.
    referenced = dict(needs_tie)
    have = {"TIE0": False, "TIE1": False}
    for gate in np.nonzero(index.alive)[0]:
        inst = index.orig(int(gate))
        ref = inst.ref
        if ref == "TIE0" or ref == "TIE1":
            have[ref] = True
        if not (referenced[CONST0] and referenced[CONST1]):
            for net in inst.conn.values():
                if net == CONST0:
                    referenced[CONST0] = True
                elif net == CONST1:
                    referenced[CONST1] = True
    if referenced[CONST0] and not have["TIE0"]:
        idx = index.append_instance("tie0_cell_opt", "TIE0", {"Y": CONST0})
        nid = index.ensure_net(CONST0)
        index.driver_of[nid] = idx
    if referenced[CONST1] and not have["TIE1"]:
        idx = index.append_instance("tie1_cell_opt", "TIE1", {"Y": CONST1})
        nid = index.ensure_net(CONST1)
        index.driver_of[nid] = idx
    return dropped


# ---------------------------------------------------------------------------
# Dead-logic sweep.
# ---------------------------------------------------------------------------


def _sweep_dead_logic_core(index: _SynthIndex) -> int:
    """Mark dead gates in the index; returns the removed count."""
    n_inst = len(index.alive)
    n_total = n_inst + len(index.appended)
    live = np.zeros(n_total, dtype=bool)
    if index.appended:
        alive_full = np.concatenate(
            [index.alive, np.asarray(index.appended_alive, dtype=bool)]
        )
    else:
        alive_full = index.alive

    seeds = (index.is_seq | index.is_mem) & index.alive
    live[:n_inst] = seeds
    module = index.result()
    driver_of = index.driver_of
    port_seeds: List[int] = []
    for port in module.output_ports:
        nid = index.net_id.get(port)
        if nid is None:
            continue
        drv = int(driver_of[nid])
        if 0 <= drv < n_total and alive_full[drv] and not live[drv]:
            live[drv] = True
            port_seeds.append(drv)

    frontier = np.concatenate(
        [np.nonzero(seeds)[0], np.asarray(port_seeds, dtype=np.int64)]
    )
    in_mat = index.in_mat
    while len(frontier):
        matrix_rows = frontier[frontier < n_inst]
        if not len(matrix_rows):
            break
        nets = in_mat[matrix_rows]
        nets = np.unique(nets[nets >= 0])
        drivers = driver_of[nets]
        drivers = np.unique(drivers[drivers >= 0])
        fresh = drivers[alive_full[drivers] & ~live[drivers]]
        live[fresh] = True
        frontier = fresh

    removed = index.alive_count() - int(live.sum())
    if removed == 0:
        return 0
    index.work()
    index.alive &= live[:n_inst]
    for i in range(len(index.appended)):
        if index.appended_alive[i] and not live[n_inst + i]:
            index.appended_alive[i] = False
    return removed


# ---------------------------------------------------------------------------
# Fanout buffering.
# ---------------------------------------------------------------------------


def _buffer_high_fanout_core(index: _SynthIndex, limit: int) -> int:
    """Split heavy nets with repeaters, iterated to a fixed point."""
    clock_ids = {
        index.net_id[n] for n in index.result().clock_nets if n in index.net_id
    }

    erows, eslots, uniq, starts, bounds = index.net_spans()
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

    index.work()
    origs = index._orig
    added = 0
    pin_names: Dict[str, List[str]] = {}
    #: source net name -> repeaters driven by it (input to later rounds).
    pending: Dict[str, List[Instance]] = {}

    for u in heavy:
        net_idx = int(uniq[u])
        net = index.net_names[net_idx]
        s, e = int(starts[u]), int(bounds[u + 1])
        sink_gates = erows[s:e]
        sink_slots = eslots[s:e]
        n_branches = -(-(e - s) // limit)
        branch_bufs: List[Instance] = []
        for b in range(n_branches):
            branch_net = f"{net}__rep{b}"
            buf_name = f"fanout_buf_{added}"
            added += 1
            bidx = index.append_instance(
                buf_name, "BUF_X8", {"A": net, "Y": branch_net}
            )
            branch_bufs.append(index.appended[bidx - len(index.alive)])
            branch_id = index.ensure_net(branch_net)
            index.driver_of[branch_id] = bidx
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
                buf_name = f"fanout_buf_{added}"
                added += 1
                bidx = index.append_instance(
                    buf_name, "BUF_X8", {"A": net, "Y": branch_net}
                )
                buf = index.appended[bidx - len(index.alive)]
                branch_bufs.append(buf)
                branch_id = index.ensure_net(branch_net)
                index.driver_of[branch_id] = bidx
                for sink in bufs[b::n_branches]:
                    sink.conn["A"] = branch_net
            pending[net] = branch_bufs

    return added


# ---------------------------------------------------------------------------
# Public passes.
# ---------------------------------------------------------------------------


def propagate_constants(
    module: Module, library: StdCellLibrary
) -> Tuple[Module, int]:
    """Fold constant-driven combinational gates.

    Returns (new module, number of gates folded).  Gates whose output is
    proven constant are replaced by rewiring their output net to the
    appropriate TIE net; sequential and memory cells are never folded.
    The input module is never mutated (and is returned as-is when
    nothing folds).
    """
    index = _SynthIndex(module, library)
    dropped = _propagate_constants_core(index)
    if not index.mutated:
        return module, 0
    index.commit()
    out = index.result()
    _prune_nets(out)
    return out, dropped


def sweep_dead_logic(
    module: Module, library: StdCellLibrary
) -> Tuple[Module, int]:
    """Remove cells whose outputs reach no output port and no register
    or memory input (transitively)."""
    index = _SynthIndex(module, library)
    removed = _sweep_dead_logic_core(index)
    if not index.mutated:
        return module, 0
    index.commit()
    out = index.result()
    _prune_nets(out)
    return out, removed


def buffer_high_fanout(
    module: Module,
    library: StdCellLibrary,
    limit: int = FANOUT_LIMIT,
) -> Tuple[Module, int]:
    """Insert BUF_X8 repeaters on nets whose sink count exceeds
    ``limit``; sinks are re-distributed round-robin and the pass repeats
    until no non-clock net (including the repeater source nets) exceeds
    the limit.  Clock nets are exempt (clock-tree synthesis is modelled
    as ideal)."""
    index = _SynthIndex(module, library)
    added = _buffer_high_fanout_core(index, limit)
    if not index.mutated:
        return module, 0
    index.commit()
    out = index.result()
    _prune_nets(out)
    return out, added


def optimize(
    module: Module,
    library: StdCellLibrary,
    inplace: bool = False,
    vt: Optional[str] = None,
) -> Tuple[Module, Dict[str, int]]:
    """Run the full pass pipeline; returns the module and a stats dict.

    One :class:`_SynthIndex` (and at most one working copy of the
    module) is shared by all three passes; the input module is never
    mutated unless ``inplace=True`` (the implementation flow passes a
    freshly flattened module it owns, which skips the bulk copy).

    ``vt`` re-flavors the surviving combinational cells to that
    threshold flavor as a fourth pass (see
    :func:`repro.synth.vt.swap_vt`); ``None`` leaves the mapping's
    flavors untouched.
    """
    stats: Dict[str, int] = {}
    index = _SynthIndex(module, library, inplace=inplace)
    stats["constants_folded"] = _propagate_constants_core(index)
    stats["dead_gates_removed"] = _sweep_dead_logic_core(index)
    stats["fanout_buffers_added"] = _buffer_high_fanout_core(index, FANOUT_LIMIT)
    if index.mutated:
        index.commit()
        _prune_nets(index.result())
        index.install_view()
    out = index.result()
    if vt is not None:
        from .vt import swap_vt

        if not inplace and out is module:
            out = _clone_flat(out)
        stats["vt_swapped"] = swap_vt(out, library, vt)
    out.validate(library)
    return out, stats
