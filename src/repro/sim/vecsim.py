"""Vectorized batch gate-level simulator.

:class:`VecSim` evaluates **B stimulus vectors simultaneously** over one
flat netlist, packing the batch as bit-parallel uint64 words (lane *b*
of a net lives in bit ``b % 64`` of word ``b // 64``).  Every cell's
logic function is expressed as a handful of bitwise numpy operations
over whole instance groups, so one evaluation pass costs a few hundred
vectorized kernel calls instead of one Python dict-walk per cell per
vector — the same NetView-index treatment the STA/activity/power
kernels received, applied to simulation.

Semantics mirror the scalar ``GateSimulator`` it replaced (kept in
``tests/reference/gatesim.py``; ``tests/test_vecsim.py`` pins the two
together) bit for bit:

* combinational cells are levelized once, by the view's
  :class:`~repro.rtl.netview.CellSchedule` (a cycle, or an input that
  no port, register or memory reaches ⇒ :class:`SimulationError`);
* sequential cells get master-slave semantics on :meth:`clock` (all D
  sampled, then all Q updated); a sequential cell without a ``Q``
  connection raises loudly;
* memory-cell read nets are resolved roots, driven by the testbench.

The compile step works on the view's group tables and its cell
schedule with array operations, never per instance: it groups the
combinational instances by (topological level, cell type), stacks
their pin tables into integer gather matrices, and **renumbers the
value rows** so each group's output pins occupy contiguous blocks:
kernels write straight into the value array through ``out=`` views and
the scatter pass disappears entirely.  A cell whose truth table (see
:attr:`~repro.tech.stdcells.Cell.truth_table`) is one of the 16 the
hand-written allocation-free bitwise kernels compute gets that kernel,
whichever library it came from; any other table gets a sum-of-minterms
kernel built from it, so custom cells simulate correctly without
registration.

The values are one ``(rows, words)`` uint64 array.  Evaluation is lazy
*and* change-driven.  Stimulus goes only to free nets (input ports and
memory read nets); each write compares against the stored words and
marks only genuinely changed nets dirty.  Propagation plans one
boolean pass over the levelized groups and evaluates exactly the
groups that can see a dirty input, so a drain cycle that re-drives
constant zeros costs almost nothing while remaining observationally
identical to a full pass.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..rtl.netview import cell_schedule, net_view
from ..tech.stdcells import Cell, StdCellLibrary, TruthTable, input_assignments

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

BatchValue = Union[int, Sequence[int], np.ndarray]


# ---------------------------------------------------------------------------
# Bitwise kernels.
#
# A kernel takes the gathered input tensor ``inp`` of shape
# (instances, pins, W) — pins in the cell's ``input_caps_ff`` order —
# plus ``outs``, a tuple of (instances, W) uint64 views (one per output
# pin, in the cell's ``outputs`` order) that it must write in place,
# and ``tmp``, a (2, instances, W) scratch array it may clobber.  The
# out= style keeps the hot loop allocation-free past the gather itself:
# every temporary lives in preallocated scratch and results land
# directly in the value rows.
# ---------------------------------------------------------------------------


def _k_inv(i, o, t):
    np.invert(i[:, 0], out=o[0])


def _k_buf(i, o, t):
    np.copyto(o[0], i[:, 0])


def _k_nand2(i, o, t):
    y = o[0]
    np.bitwise_and(i[:, 0], i[:, 1], out=y)
    np.invert(y, out=y)


def _k_nor2(i, o, t):
    y = o[0]
    np.bitwise_or(i[:, 0], i[:, 1], out=y)
    np.invert(y, out=y)


def _k_and2(i, o, t):
    np.bitwise_and(i[:, 0], i[:, 1], out=o[0])


def _k_or2(i, o, t):
    np.bitwise_or(i[:, 0], i[:, 1], out=o[0])


def _k_xor2(i, o, t):
    np.bitwise_xor(i[:, 0], i[:, 1], out=o[0])


def _k_xnor2(i, o, t):
    y = o[0]
    np.bitwise_xor(i[:, 0], i[:, 1], out=y)
    np.invert(y, out=y)


def _k_aoi22(i, o, t):
    y, t0 = o[0], t[0]
    np.bitwise_and(i[:, 0], i[:, 1], out=y)
    np.bitwise_and(i[:, 2], i[:, 3], out=t0)
    np.bitwise_or(y, t0, out=y)
    np.invert(y, out=y)


def _k_oai22(i, o, t):
    y, t0 = o[0], t[0]
    np.bitwise_or(i[:, 0], i[:, 1], out=y)
    np.bitwise_or(i[:, 2], i[:, 3], out=t0)
    np.bitwise_and(y, t0, out=y)
    np.invert(y, out=y)


def _k_mux2(i, o, t):
    # y = d0 ^ (s & (d0 ^ d1)) ≡ s ? d1 : d0, with zero temporaries.
    d0, d1, s = i[:, 0], i[:, 1], i[:, 2]
    y = o[0]
    np.bitwise_xor(d0, d1, out=y)
    np.bitwise_and(y, s, out=y)
    np.bitwise_xor(y, d0, out=y)


def _k_ha(i, o, t):
    a, b = i[:, 0], i[:, 1]
    np.bitwise_xor(a, b, out=o[0])
    np.bitwise_and(a, b, out=o[1])


def _k_fa(i, o, t):
    a, b, ci = i[:, 0], i[:, 1], i[:, 2]
    s, co, t0 = o[0], o[1], t[0]
    np.bitwise_xor(a, b, out=t0)
    np.bitwise_and(ci, t0, out=co)
    np.bitwise_xor(t0, ci, out=s)
    np.bitwise_and(a, b, out=t0)
    np.bitwise_or(co, t0, out=co)


def _k_cmp42(i, o, t):
    a, b, c, d, ci = i[:, 0], i[:, 1], i[:, 2], i[:, 3], i[:, 4]
    s, cy, co = o
    t0, t1 = t[0], t[1]
    # co = majority(a, b, c) = (a&b) | (c & (a|b))
    np.bitwise_and(a, b, out=co)
    np.bitwise_or(a, b, out=t0)
    np.bitwise_and(t0, c, out=t0)
    np.bitwise_or(co, t0, out=co)
    # s3 = a^b^c; cy = (s3&d) | (ci & (s3^d)); s = s3^d^ci
    np.bitwise_xor(a, b, out=t0)
    np.bitwise_xor(t0, c, out=t0)
    np.bitwise_and(t0, d, out=cy)
    np.bitwise_xor(t0, d, out=t1)
    np.bitwise_and(ci, t1, out=t0)
    np.bitwise_or(cy, t0, out=cy)
    np.bitwise_xor(t1, ci, out=s)


def _k_tie0(i, o, t):
    o[0].fill(0)


def _k_tie1(i, o, t):
    o[0].fill(_ONES)


def _kernel_table(kernel, k: int, n_out: int) -> TruthTable:
    """A hand-written kernel's truth table: the kernel run once, with
    input assignment ``r`` in lane ``r`` (k <= 5, so one word)."""
    rows = input_assignments(k)
    words = [sum(a[i] << r for r, a in enumerate(rows)) for i in range(k)]
    inp = np.array(words, dtype=np.uint64).reshape(1, k, 1)
    outs = tuple(np.zeros((1, 1), dtype=np.uint64) for _ in range(n_out))
    kernel(inp, outs, np.zeros((2, 1, 1), dtype=np.uint64))
    return tuple(
        tuple(int(o[0, 0]) >> r & 1 for o in outs) for r in range(len(rows))
    )


#: The hand-written kernels by the truth table each computes, so a cell
#: gets one exactly when its table (inputs in ``input_caps_ff`` order,
#: outputs in ``outputs`` order) matches: Liberty-imported copies of the
#: library's cells included.
_BUILTIN = {
    _kernel_table(kernel, k, n_out): kernel
    for kernel, k, n_out in (
        (_k_inv, 1, 1),
        (_k_buf, 1, 1),
        (_k_nand2, 2, 1),
        (_k_nor2, 2, 1),
        (_k_and2, 2, 1),
        (_k_or2, 2, 1),
        (_k_xor2, 2, 1),
        (_k_xnor2, 2, 1),
        (_k_aoi22, 4, 1),
        (_k_oai22, 4, 1),
        (_k_mux2, 3, 1),
        (_k_ha, 2, 2),
        (_k_fa, 3, 2),
        (_k_cmp42, 5, 3),
        (_k_tie0, 0, 1),
        (_k_tie1, 0, 1),
    )
}


def _minterm_kernel(table: TruthTable):
    """Sum-of-minterms kernel over any truth table: pure bitwise numpy
    over the caller's scratch rows, at worst 2^k AND/OR terms per
    output."""
    assignments = input_assignments(len(table).bit_length() - 1)
    minterms: List[List[Tuple[int, ...]]] = [
        [a for a, row in zip(assignments, table) if row[oi]]
        for oi in range(len(table[0]))
    ]

    def kernel(inp, outs, tmp):
        term, scratch = tmp[0], tmp[1]
        for oi, terms in enumerate(minterms):
            acc = outs[oi]
            acc.fill(0)
            for assignment in terms:
                if not assignment:  # zero-input cell, constant-1 output
                    acc.fill(_ONES)
                    continue
                for pin_i, bit in enumerate(assignment):
                    col = inp[:, pin_i]
                    if pin_i == 0:
                        if bit:
                            np.copyto(term, col)
                        else:
                            np.invert(col, out=term)
                    elif bit:
                        np.bitwise_and(term, col, out=term)
                    else:
                        np.invert(col, out=scratch)
                        np.bitwise_and(term, scratch, out=term)
                np.bitwise_or(acc, term, out=acc)

    return kernel


def _kernel_for(cell: Cell):
    table = cell.truth_table
    if table is None:
        raise SimulationError(f"{cell.name} has no logic function")
    return _BUILTIN.get(table) or _minterm_kernel(table)


class _Group:
    """One compiled (level, cell-type) instance group.

    Inputs gather through the ``gather`` index matrix (value rows, one
    row of pin indices per instance); output pin ``j`` owns the
    contiguous row block ``[out_base + j*inst, out_base + (j+1)*inst)``
    of the value array, held in ``outs`` as views, which is what lets
    kernels write results in place with no scatter pass.
    """

    __slots__ = ("kernel", "gather", "pins", "out_base", "rows", "outs", "tmp")

    def __init__(self, kernel, gather: np.ndarray, out_base: int,
                 n_out: int, values: np.ndarray, sbuf: np.ndarray) -> None:
        self.kernel = kernel
        inst, self.pins = gather.shape
        self.gather = np.ascontiguousarray(gather)
        self.out_base = out_base
        self.rows = inst * n_out
        self.outs = tuple(
            values[out_base + j * inst : out_base + (j + 1) * inst]
            for j in range(n_out)
        )
        self.tmp = sbuf[:, :inst]


# ---------------------------------------------------------------------------
# Batch packing helpers.
# ---------------------------------------------------------------------------


def pack_lanes(bits: np.ndarray, words: int) -> np.ndarray:
    """Pack 0/1 lane values into uint64 words, lane ``b`` → bit ``b%64``
    of word ``b//64``.  ``bits`` is (..., B); returns (..., words).
    Tail bits past B are always zero."""
    arr = np.ascontiguousarray(bits, dtype=np.uint8)
    packed = np.packbits(arr, axis=-1, bitorder="little")
    out = np.zeros(arr.shape[:-1] + (words * 8,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view("<u8")


def unpack_lanes(words_arr: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of :func:`pack_lanes`: (..., W) words → (..., batch) bits."""
    as_bytes = np.ascontiguousarray(words_arr).astype("<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :batch]


def _twos_complement(bits: np.ndarray) -> np.ndarray:
    """(batch, width) LSB-first bits → per-lane two's-complement ints."""
    weights = 1 << np.arange(bits.shape[1], dtype=np.int64)
    weights[-1] = -weights[-1]
    return bits.astype(np.int64) @ weights


class VecSim:
    """Simulate one flat module over a batch of stimulus vectors.

    Parameters
    ----------
    module:
        A *flat* module (hierarchical instances raise).
    library:
        Cell library supplying logic functions.
    batch:
        Number of simultaneous stimulus lanes ``B``.

    Lane-indexed arguments accept either a scalar (broadcast to every
    lane) or a length-``B`` sequence of 0/1 values.  Only free nets
    (input ports and memory read nets) take stimulus; a write to a
    fabric-driven net raises.
    """

    def __init__(
        self,
        module,
        library: StdCellLibrary,
        batch: int = 64,
    ) -> None:
        if batch < 1:
            raise SimulationError(f"batch must be positive, got {batch}")
        self.module = module
        self.library = library
        self.batch = int(batch)
        self.words = (self.batch + 63) // 64
        tail_bits = self.batch - 64 * (self.words - 1)
        #: A scalar 1 in canonical word form: all ones but the bits past
        #: the batch, so change detection never trips on unused bits.
        self._ones = np.full(self.words, _ONES, dtype=np.uint64)
        self._ones[-1] >>= np.uint64(64 - tail_bits)
        view = net_view(module, library)
        self._view = view
        self._nid = view.net_id
        self._n_ext = view.n_nets
        self._compile()
        self._dirty_rows = np.zeros(len(self._values), dtype=bool)
        self._all_dirty = True
        self._dirty = True

    # -- compilation ---------------------------------------------------------

    def _compile(self) -> None:
        view, n_ext = self._view, self._n_ext
        # Free nets (testbench-owned): input ports and memory read nets
        # that no register or combinational output drives.
        free = np.zeros(n_ext + 1, dtype=bool)  # slot -1: no net
        free[[self._nid[p] for p in self.module.input_ports]] = True
        comb = []
        regs = [np.zeros((3, 0), dtype=np.int64)]
        faults = []
        for g in view.groups:
            cell = g.cell
            if cell.is_sequential:
                # Q must be connected; an absent D holds the state.
                none = np.full(len(g), -1, dtype=np.int64)
                pins = tuple(cell.input_caps_ff)
                q = g.out_ids[:, cell.outputs.index("Q")] if "Q" in cell.outputs else none
                d = g.in_ids[:, pins.index("D")] if "D" in pins else none
                regs.append(np.stack([g.inst_idx, d, q]))
                if (q < 0).any():
                    faults.append((int(g.inst_idx[q < 0][0]), cell.name))
            elif cell.is_memory:
                free[g.out_ids] = True
            else:
                comb.append(g)
        if faults:
            idx, name = min(faults)
            raise SimulationError(
                f"{self.module.name}: sequential cell "
                f"{self.module.instances[idx].name} ({name}) has no Q "
                "connection — its state would be invisible to the fabric"
            )
        # The register tables in instance order.
        reg = np.concatenate(regs, axis=1)
        _, d_ext, q_ext = reg[:, np.argsort(reg[0], kind="stable")]

        # The view's cell schedule levelizes the combinational cells
        # with the scalar simulator's roots: ports, Q and memory nets.
        sched = cell_schedule(view)
        if sched.order.size != sched.n_comb:
            raise SimulationError(
                f"levelization failed: {sched.order.size} of "
                f"{sched.n_comb} combinational cells ordered (cycle?)"
            )

        # Group by (level, cell type), keeping the schedule's order
        # inside a group: one stable sort of a combined key.
        comb.sort(key=lambda g: g.cell.name)
        kind = np.zeros(view.n_instances, dtype=np.int64)
        pos = np.zeros(view.n_instances, dtype=np.int64)
        for k, g in enumerate(comb):
            kind[g.inst_idx] = k
            pos[g.inst_idx] = np.arange(len(g))
        key = sched.level * len(comb) + kind[sched.order]
        by = np.argsort(key, kind="stable")
        order, key = sched.order[by], key[by]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        ends = np.append(starts[1:], key.size)

        # Row numbering: each group's output pin j gets a contiguous row
        # block (unconnected outputs get private trash slots inside the
        # block), so kernels write value rows directly and no scatter
        # pass exists.  Roots — ports, Q nets, memory read nets,
        # undriven nets — take the rows after all blocks in net-id
        # order, and one shared constant-zero row (for unconnected
        # input pins) closes the table.
        specs, blocks, base = [], [], 0
        for s, e in zip(starts.tolist(), ends.tolist()):
            level, k = divmod(int(key[s]), len(comb))
            g = comb[k]
            at = pos[order[s:e]]
            blocks.append(g.out_ids[at].T.ravel())
            specs.append((level, g.cell, g.in_ids[at], base, len(g.cell.outputs)))
            base += blocks[-1].size
        drives = np.concatenate(blocks) if blocks else np.zeros(0, np.int64)
        rows = np.flatnonzero(drives >= 0)
        nets = drives[rows]
        int_id = np.full(n_ext + 1, -1, dtype=np.int64)
        int_id[nets] = rows
        free[q_ext] = free[nets] = free[-1] = False
        self._free = free
        # The first row whose net an earlier row already drives.
        dup = -1
        if nets.size and np.bincount(nets).max() > 1:
            later = np.ones(nets.size, dtype=bool)
            later[np.unique(nets, return_index=True)[1]] = False
            dup = int(rows[np.argmax(later)])
        roots = np.flatnonzero(int_id[:n_ext] < 0)
        int_id[roots] = base + np.arange(roots.size)
        int_id[n_ext] = base + roots.size
        self._int = int_id

        self._values = np.zeros((base + roots.size + 1, self.words), dtype=np.uint64)
        max_inst = int((ends - starts).max(initial=1))
        sbuf = np.empty((2, max_inst, self.words), dtype=np.uint64)
        kernels: Dict[str, object] = {}
        n_levels = specs[-1][0] + 1 if specs else 0
        self._levels: List[List[_Group]] = [[] for _ in range(n_levels)]
        for level, cell, gin, out_base, n_out in specs:
            kernel = kernels.get(cell.name)
            if kernel is None:
                kernel = kernels[cell.name] = _kernel_for(cell)
            if out_base <= dup < out_base + len(gin) * n_out:
                raise SimulationError(
                    f"net {view.net_names[drives[dup]]} has multiple "
                    "combinational drivers"
                )
            self._levels[level].append(
                _Group(kernel, int_id[gin], out_base, n_out, self._values, sbuf)
            )

        # Register tables; an absent D reads the constant-zero row and
        # is masked out of every sample.
        self._d_hold = d_ext < 0
        self._d_int = int_id[d_ext]
        self._q_ids = int_id[q_ext]
        self._state = np.zeros((len(q_ext), self.words), dtype=np.uint64)

    # -- stimulus ------------------------------------------------------------

    def _pack(self, value: BatchValue) -> np.ndarray:
        """Canonical word form of one net's stimulus."""
        if isinstance(value, (int, np.integer, bool)):
            return self._ones if value else np.zeros_like(self._ones)
        bits = np.asarray(value)
        if bits.shape != (self.batch,):
            raise SimulationError(
                f"expected a scalar or {self.batch} lane values, "
                f"got shape {bits.shape}"
            )
        return pack_lanes(bits != 0, self.words)

    def net_id(self, net: str) -> int:
        try:
            return self._nid[net]
        except KeyError:
            raise SimulationError(f"unknown net {net}") from None

    def _write(self, ids: np.ndarray, words2d: np.ndarray) -> None:
        """The one stimulus write: refuse fabric-driven nets, then
        compare-and-write, marking only the rows whose stored words
        actually changed."""
        ok = self._free[ids]
        if not ok.all():
            bad = int(ids[~ok][0])
            raise SimulationError(
                f"net {self._view.net_names[bad]} is fabric-driven"
            )
        rows = self._int[ids]
        changed = np.any(self._values[rows] != words2d, axis=1)
        if changed.any():
            rows = rows[changed]
            self._values[rows] = words2d[changed]
            self._dirty_rows[rows] = True
            self._dirty = True

    def set_input(self, net: str, value: BatchValue) -> None:
        """Drive a port with a scalar (broadcast) or per-lane values."""
        if net not in self.module.ports:
            raise SimulationError(f"{net} is not a port")
        self._write(np.array([self._nid[net]]), self._pack(value)[None])

    def set_bus(self, base: str, value_bits: Sequence[BatchValue]) -> None:
        for i, bit in enumerate(value_bits):
            self.set_input(f"{base}[{i}]", bit)

    def set_bus_int(
        self, base: str, values: BatchValue, width: int
    ) -> None:
        """Drive ``base[0..width-1]`` with per-lane two's-complement
        integers (scalar broadcast accepted)."""
        vals = np.asarray(values, dtype=np.int64)
        if vals.ndim == 0:
            vals = np.full(self.batch, int(vals), dtype=np.int64)
        if vals.shape != (self.batch,):
            raise SimulationError(
                f"expected a scalar or {self.batch} values, got "
                f"shape {vals.shape}"
            )
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        if vals.min() < lo or vals.max() > hi:
            raise SimulationError(f"values exceed INT{width} range")
        bits = (vals[None, :] >> np.arange(width)[:, None]) & 1
        ids = self._bus_ids(base, width)
        for i in range(width):
            if f"{base}[{i}]" not in self.module.ports:
                raise SimulationError(f"{base}[{i}] is not a port")
        self._write(ids, pack_lanes(bits.astype(np.uint8), self.words))

    def drive_nets(
        self, net_ids: np.ndarray, bits: np.ndarray
    ) -> None:
        """Bulk-drive *free* nets (ports or memory read nets) by id.

        ``bits`` is (len(net_ids),) scalar-per-net (broadcast across
        lanes) or (len(net_ids), batch) per-lane.  This is the hot path
        for loading thousands of weight nets per verification round;
        re-driving unchanged values (a drain cycle's zeros, a repeated
        weight image) marks nothing dirty and costs one comparison.
        """
        ids = np.asarray(net_ids, dtype=np.int64)
        bits = np.asarray(bits)
        if bits.shape == (len(ids),):
            words2d = np.where(bits.astype(bool)[:, None], self._ones, np.uint64(0))
        elif bits.shape == (len(ids), self.batch):
            words2d = pack_lanes(bits != 0, self.words)
        else:
            raise SimulationError(
                f"bits shape {bits.shape} matches neither (n,) nor "
                f"(n, {self.batch})"
            )
        self._write(ids, words2d)

    def reset_state(self, value: int = 0) -> None:
        new = self._pack(int(bool(value)))
        changed = np.any(self._state != new, axis=1)
        if changed.any():
            self._state[changed] = new
            self._dirty_rows[self._q_ids[changed]] = True
            self._dirty = True

    # -- evaluation ----------------------------------------------------------

    def _ensure(self) -> None:
        if self._dirty:
            self._propagate()

    def _plan(self) -> List[List[_Group]]:
        """Decide which groups must evaluate this pass.

        A group runs when any of its gathered source rows is dirty.
        Runs cascade level by level: an evaluated group marks its
        output block dirty so downstream groups see the change.  The
        pass is pure boolean work over precomputed index arrays —
        microseconds against the kernels it saves."""
        if self._all_dirty:
            return self._levels
        dirty = self._dirty_rows
        plan: List[List[_Group]] = []
        for groups in self._levels:
            run = [g for g in groups if dirty[g.gather].any()]
            for g in run:
                dirty[g.out_base : g.out_base + g.rows] = True
            plan.append(run)
        return plan

    def _propagate(self) -> None:
        v = self._values
        v[self._q_ids] = self._state
        for run in self._plan():
            for g in run:
                g.kernel(v[g.gather] if g.pins else None, g.outs, g.tmp)
        self._dirty_rows[:] = False
        self._all_dirty = False
        self._dirty = False

    def clock(self) -> None:
        """One rising edge: sample every D, then update every Q.

        The post-edge propagation is deferred until the next
        observation or clock (identical results, half the passes); a Q
        whose sampled D equals its held state marks nothing dirty, so
        quiescent registers cost nothing downstream."""
        self._ensure()
        sampled = self._values[self._d_int]
        hold = self._d_hold
        if hold.any():
            sampled[hold] = self._state[hold]
        changed = np.any(sampled != self._state, axis=1)
        if changed.any():
            self._state = sampled
            self._dirty_rows[self._q_ids[changed]] = True
            self._dirty = True

    # -- observation ---------------------------------------------------------

    def _bus_ids(self, base: str, width: int) -> np.ndarray:
        return np.asarray(
            [self.net_id(f"{base}[{i}]") for i in range(width)], dtype=np.int64
        )

    def net(self, net: str) -> np.ndarray:
        """Per-lane values of one net, shape (batch,) uint8."""
        self._ensure()
        return unpack_lanes(self._values[self._int[self.net_id(net)]], self.batch)

    def bus(self, base: str, width: int) -> np.ndarray:
        """Per-lane bus bits, shape (batch, width), LSB first."""
        self._ensure()
        rows = self._int[self._bus_ids(base, width)]
        return unpack_lanes(self._values[rows], self.batch).T

    def bus_int(self, base: str, width: int) -> np.ndarray:
        """Per-lane two's-complement bus values, shape (batch,) int64."""
        return _twos_complement(self.bus(base, width))

    def bus_ids_int(self, ids: np.ndarray) -> np.ndarray:
        """Two's-complement decode over precomputed net ids (LSB first);
        the bulk-observation twin of :meth:`bus_int`."""
        self._ensure()
        rows = self._int[np.asarray(ids, dtype=np.int64)]
        return _twos_complement(unpack_lanes(self._values[rows], self.batch).T)

    def lanes_snapshot(self) -> np.ndarray:
        """Every net's per-lane value, shape (n_nets, batch) uint8,
        rows in NetView net-id order — the differential-test view."""
        self._ensure()
        return unpack_lanes(self._values[self._int[: self._n_ext]], self.batch)
