"""Switching-activity estimation over gate netlists.

Propagates static signal probabilities and transition densities from the
primary inputs through the combinational network, using the Boolean-
difference formulation (Najm): for output ``f`` of a cell,

``D(f) = sum_i P(df/dx_i) * D(x_i)``

where ``P(df/dx_i)`` — the probability the output is sensitized to input
``i`` — is evaluated exactly by enumerating the cell's truth table
weighted by the other inputs' probabilities (our largest cell has five
inputs, so enumeration is cheap and exact).

Register outputs toggle when consecutive samples differ; under the
temporal-independence assumption ``D(Q) = 2 p (1 - p)`` with ``p`` the
data-input probability.  Clock nets carry two transitions per cycle.

Input statistics express workloads: the Table II measurement conditions
(12.5 % input sparsity, 50 % weight sparsity) enter as probabilities on
the macro's ``x``/``wb`` ports.

Implementation notes (the SCL-build hot path)
---------------------------------------------
Characterizing the default subcircuit library evaluates ~70 k cells, but
only ~2 k *distinct* ``(cell, input statistics)`` combinations — deep
regular fabrics feed identical statistics into identical cells level
after level.  Each distinct logic function therefore compiles once into
a :class:`_CellKernel`, keyed by the cell's truth table so every
(vt, drive) variant of a family shares it: the table's output values
and Boolean-difference flip masks become small numpy tensors, and every
evaluation result is memoized by the exact input-statistics tuple.  The
propagation itself runs over the integer tables of
:func:`repro.rtl.netview.net_view` (net-indexed state lists) instead of
chasing ``inst.conn`` dictionaries, in one straight loop over the
combinational cells in the order of the view's
:class:`~repro.rtl.netview.CellSchedule` (the levelization
:class:`~repro.sim.vecsim.VecSim` groups its cells by, built once per
view).

``tests/reference/activity.py`` keeps the original, obviously-correct
per-cell walk as an executable specification; the equivalence suite
(``tests/test_vector_kernels.py``) pins the fast path to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..rtl.netview import CellSchedule, NetView, cell_schedule
from ..tech.stdcells import Cell, TruthTable, input_assignments

#: Default signal probability / transition density for unannotated inputs.
DEFAULT_PROBABILITY = 0.5
DEFAULT_DENSITY = 0.5
#: Transitions per cycle on a clock net (rise + fall).
CLOCK_DENSITY = 2.0
#: Inertial glitch cap: the Boolean-difference algebra adds densities
#: through XOR-rich fabrics without bound, but real gates low-pass
#: filter pulses shorter than their delay.  Clamping per-net density
#: keeps deep adder trees' glitch power finite (and measured-realistic).
GLITCH_DENSITY_CAP = 1.5


@dataclass(frozen=True)
class NetActivity:
    probability: float
    density: float


#: Safety valve for long-lived processes: a kernel's memo is cleared if
#: a pathological workload ever produces this many distinct stat tuples.
_MEMO_LIMIT = 65536

#: Compiled kernels keyed by truth table: one per logic function.
_KERNELS: Dict[TruthTable, "_CellKernel"] = {}


class _CellKernel:
    """Truth-table tensors + memoized evaluations for one logic function."""

    __slots__ = ("n", "n_out", "assign", "out_vals", "flip_diff", "memo")

    def __init__(self, table: TruthTable) -> None:
        m = len(table)
        n = m.bit_length() - 1
        self.n = n
        self.n_out = len(table[0])
        out_vals = np.array(table, dtype=np.float64)
        self.out_vals = out_vals
        #: (2^n, n) matrix of assignment bits, in the table's row order
        #: (pin 0 is the most significant bit of the row index).
        self.assign = np.array(
            input_assignments(n), dtype=np.float64
        ).reshape(m, n)
        #: flip_diff[i, a, o] = 1 when toggling pin i flips output o
        #: under assignment a (the Boolean difference indicator).
        flip_diff = np.zeros((n, m, self.n_out), dtype=np.float64)
        rows = np.arange(m)
        for i in range(n):
            partner = rows ^ (1 << (n - 1 - i))
            flip_diff[i] = (out_vals != out_vals[partner]).astype(np.float64)
        self.flip_diff = flip_diff
        self.memo: Dict[tuple, Tuple[NetActivity, ...]] = {}

    def evaluate_key(self, key: Tuple[float, ...]) -> Tuple[NetActivity, ...]:
        """Exact output activity for the given input statistics, one
        :class:`NetActivity` per cell output (memoized by ``key``): the
        first ``n`` entries are pin probabilities, the rest pin
        densities."""
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        n = self.n
        probs = key[:n]
        densities = key[n:]
        if n == 0:
            # Tie cells: constant output, no transitions.
            result = tuple(
                NetActivity(float(v), 0.0) for v in self.out_vals[0]
            )
        else:
            p = np.asarray(probs, dtype=np.float64)
            assign = self.assign
            # Per-assignment, per-pin probability factor; weights are the
            # row products, multiplied in pin order like the reference.
            factors = assign * p + (1.0 - assign) * (1.0 - p)
            weights = factors[:, 0].copy()
            for j in range(1, n):
                weights *= factors[:, j]
            out_prob = weights @ self.out_vals
            # other_weight = weight / factor_i, with the reference's skip
            # rules: zero-weight assignments and zero-probability pin
            # states contribute nothing.
            w_excl = np.divide(
                weights[:, None],
                factors,
                out=np.zeros_like(factors),
                where=factors > 0.0,
            )
            sens = 0.5 * np.einsum("iao,ai->oi", self.flip_diff, w_excl)
            density = sens @ np.asarray(densities, dtype=np.float64)
            result = tuple(
                NetActivity(
                    min(max(float(out_prob[oi]), 0.0), 1.0),
                    min(float(density[oi]), GLITCH_DENSITY_CAP),
                )
                for oi in range(self.n_out)
            )
        if len(self.memo) >= _MEMO_LIMIT:
            self.memo.clear()
        self.memo[key] = result
        return result


def _kernel(cell: Cell) -> _CellKernel:
    table = cell.truth_table
    if table is None:
        raise SimulationError(f"{cell.name} has no logic function for activity")
    kernel = _KERNELS.get(table)
    if kernel is None:
        kernel = _KERNELS[table] = _CellKernel(table)
    return kernel


class _ActivitySchedule:
    """Input-statistics-independent propagation structure for one view,
    built by each propagation the ``activity_prop`` memo misses:
    classified instances, and the combinational cells' pin id tuples in
    the order of the view's :class:`~repro.rtl.netview.CellSchedule`."""

    __slots__ = (
        "cells",         # the view's CellSchedule
        "entries",       # per instance: (kernel, memo, in_ids, out_ids,
                         # fully_connected) for combinational cells
        "comb",          # the scheduled cells' entries, in order
        "seq",           # [(d_id, q_id)]
        "mem",           # [rd_id]
        "input_seed",    # [(net_id, is_clock)] for the primary inputs
    )

    def __init__(self, view: NetView) -> None:
        module = view.module
        net_id = view.net_id
        clock_ids = {
            net_id[c] for c in module.clock_nets if c in net_id
        }
        self.input_seed = [
            (net_id[p], net_id[p] in clock_ids)
            for p in module.input_ports
        ]
        entries: List[Optional[tuple]] = [None] * view.n_instances
        seq: List[Tuple[int, int]] = []
        mem: List[int] = []
        in_ids = view.in_ids
        out_ids = view.out_ids

        def pin_column(group, name: str, outputs: bool) -> List[int]:
            cell = group.cell
            pins = cell.outputs if outputs else tuple(cell.input_caps_ff)
            table = group.out_ids if outputs else group.in_ids
            for j, pin in enumerate(pins):
                if pin == name:
                    return table[:, j].tolist()
            return [-1] * len(group)

        for group in view.groups:
            cell = group.cell
            if cell.is_sequential:
                seq.extend(
                    zip(
                        pin_column(group, "D", outputs=False),
                        pin_column(group, "Q", outputs=True),
                    )
                )
                continue
            if cell.is_memory:
                mem.extend(pin_column(group, "RD", outputs=True))
                continue
            kern = _kernel(cell)
            memo = kern.memo
            if group.in_ids.shape[1]:
                fully = (group.in_ids >= 0).all(axis=1).tolist()
            else:
                fully = [True] * len(group)
            for k, idx in enumerate(group.inst_idx.tolist()):
                entries[idx] = (kern, memo, in_ids[idx], out_ids[idx], fully[k])
        self.entries = entries
        self.cells = cell_schedule(view)
        self.comb = [entries[i] for i in self.cells.order.tolist()]
        self.seq = seq
        self.mem = mem


def _propagate_arrays(
    view: NetView,
    input_stats: Optional[Mapping[str, NetActivity]] = None,
) -> Tuple[List[float], List[float], List[bool], Dict[str, NetActivity]]:
    """Core propagation over the compiled view, memoized per stats
    content.

    Returns (probability, density, known) lists indexed by net id plus
    the pass-through stats for ``input_stats`` keys naming no net.
    Callers must treat the returned lists as read-only: a repeated
    power estimate with identical input statistics returns the cached
    propagation.  A compile estimates power once per view (corner
    signoff rescales that report), so only a forced re-implement
    (``ImplementSession.implement(force=True)``, the path the
    ``implement_warm_ms`` perf gate times) hits it.  Like STA's
    ``sta_prop`` cache the memo holds a single entry, so sweeps that
    alternate between two stat sets recompute each time instead of
    growing without bound.
    """
    key = (
        None if input_stats is None else frozenset(input_stats.items())
    )
    cached = view.derived.get("activity_prop")
    if cached is not None and cached[0] == key:
        return cached[1]
    result = _propagate_arrays_uncached(view, input_stats)
    view.derived["activity_prop"] = (key, result)
    return result


def _propagate_arrays_uncached(
    view: NetView,
    input_stats: Optional[Mapping[str, NetActivity]] = None,
) -> Tuple[List[float], List[float], List[bool], Dict[str, NetActivity]]:
    sched = _ActivitySchedule(view)
    n = view.n_nets
    prob: List[float] = [0.0] * n
    dens: List[float] = [0.0] * n
    known: List[bool] = [False] * n
    extra: Dict[str, NetActivity] = {}
    net_id = view.net_id

    for i, is_clock in sched.input_seed:
        if is_clock:
            prob[i], dens[i] = 0.5, CLOCK_DENSITY
        else:
            prob[i], dens[i] = DEFAULT_PROBABILITY, DEFAULT_DENSITY
        known[i] = True
    if input_stats:
        for name, act in input_stats.items():
            i = net_id.get(name)
            if i is None:
                extra[name] = act
            else:
                prob[i], dens[i] = act.probability, act.density
                known[i] = True

    # Seed sequential/memory outputs first — they are the startpoints
    # that break the fabric into an acyclic region.
    for _d_id, q_id in sched.seq:
        if q_id >= 0 and not known[q_id]:
            prob[q_id], dens[q_id] = 0.5, 0.5
            known[q_id] = True
    for rd_id in sched.mem:
        if rd_id >= 0 and not known[rd_id]:
            prob[rd_id], dens[rd_id] = 0.5, 0.0
            known[rd_id] = True

    # The combinational cells in the view's schedule order, so every
    # input a cell reads is final when it runs (sequential and memory
    # cells break cycles).  A cell on or behind a cycle, or reading a
    # net that nothing resolves, stalls the pass; a net ``input_stats``
    # names counts as resolved.
    cells, comb = sched.cells, sched.comb
    named = [i for i in cells.unreached.tolist() if known[i]]
    if named:
        cells = CellSchedule(view, named)
        comb = [sched.entries[i] for i in cells.order.tolist()]
    if cells.order.size != cells.n_comb:
        raise SimulationError(
            f"activity propagation stalled: {cells.order.size} of "
            f"{cells.n_comb} combinational cells resolved "
            "(combinational cycle?)"
        )
    pget = prob.__getitem__
    dget = dens.__getitem__
    # Only unconnected pins (-1) need the defaults.
    for kernel, memo, in_ids, out_ids, fully_connected in comb:
        if fully_connected:
            key = tuple(map(pget, in_ids)) + tuple(map(dget, in_ids))
        else:
            key = tuple(
                [
                    prob[i] if i >= 0 else DEFAULT_PROBABILITY
                    for i in in_ids
                ]
                + [dens[i] if i >= 0 else DEFAULT_DENSITY for i in in_ids]
            )
        acts = memo.get(key)
        if acts is None:
            acts = kernel.evaluate_key(key)
        for net, act in zip(out_ids, acts):
            if net >= 0:
                prob[net] = act.probability
                dens[net] = act.density
                known[net] = True

    # Two-pass refinement: register outputs seeded at p=0.5 get their real
    # data probability now that the fabric has been evaluated once.
    for d_id, q_id in sched.seq:
        if d_id >= 0 and known[d_id] and q_id >= 0:
            p = prob[d_id]
            prob[q_id] = p
            dens[q_id] = 2.0 * p * (1.0 - p)
            known[q_id] = True
    return prob, dens, known, extra
