"""Arrival-time propagation, slack and critical-path extraction.

Implements the PrimeTime-style checks the paper's flow relies on
("we evaluate the PPA of the netlist through gate-level simulation" and
post-layout STA, Section III.D):

* longest-path propagation of arrival times and slews over the
  combinational graph, one net level at a time;
* setup checks at register data pins and output ports against the clock
  period;
* worst-negative-slack, per-endpoint slack and critical-path traceback.

Delays come from the same equation the characterization flow tabulates
(:func:`repro.tech.characterization.arc_delay_ns`), so pre-layout STA,
Liberty views and the subcircuit-library LUTs are mutually consistent.
Post-layout runs pass the routed wire caps, one per net id of the
module's view (:attr:`repro.layout.route.RoutingEstimate.net_caps_ff`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import TimingError
from ..rtl.ir import Module
from ..rtl.netview import NetView, levelize, net_view
from ..tech.characterization import SLEW_GAIN, SLEW_SENSITIVITY
from ..tech.stdcells import StdCellLibrary
from .graph import net_loads_vector

#: Assumed transition time at startpoints (registered outputs / ports).
START_SLEW_NS = 0.02


@dataclass(frozen=True)
class PathStep:
    """One hop of a reported critical path."""

    instance: str
    cell: str
    input_pin: str
    output_pin: str
    net: str
    arrival_ns: float


@dataclass(frozen=True)
class TimingReport:
    """Result of one STA run."""

    clock_period_ns: float
    critical_path_ns: float
    wns_ns: float
    endpoint: str
    endpoint_kind: str
    path: Tuple[PathStep, ...]
    endpoint_slacks: Dict[str, float]

    @property
    def met(self) -> bool:
        return self.wns_ns >= 0.0

    @property
    def max_frequency_mhz(self) -> float:
        if self.critical_path_ns <= 0.0:
            raise TimingError("empty design has no maximum frequency")
        return 1e3 / self.critical_path_ns

    def describe(self) -> str:
        status = "MET" if self.met else "VIOLATED"
        lines = [
            f"clock period {self.clock_period_ns:.4f} ns: {status} "
            f"(WNS {self.wns_ns:+.4f} ns)",
            f"critical path {self.critical_path_ns:.4f} ns -> "
            f"{self.endpoint} ({self.endpoint_kind}), "
            f"fmax {self.max_frequency_mhz:.1f} MHz",
        ]
        for step in self.path[-12:]:
            lines.append(
                f"  {step.arrival_ns:8.4f} ns  {step.cell:10s} "
                f"{step.instance} {step.input_pin}->{step.output_pin} "
                f"({step.net})"
            )
        return "\n".join(lines)


def analyze(
    module: Module,
    library: StdCellLibrary,
    clock_period_ns: float,
    wire_load: Optional[np.ndarray] = None,
    derate: float = 1.0,
) -> TimingReport:
    """Run STA on a flat module against ``clock_period_ns``.

    ``wire_load`` holds one wire capacitance (fF) per net id of the
    module's view, or is ``None`` for the pre-layout wire-load model.
    ``derate`` is a global delay multiplier for corner analysis — e.g.
    pass ``CORNERS["SS"].delay_factor`` for slow-corner signoff.

    Runs the vectorized forward pass (see :class:`_TimingArrays`);
    ``tests/reference/sta.py`` keeps the explicit-graph version it
    replaced, which the equivalence suite pins it to.
    """
    view = net_view(module, library)
    return _analyze_view(view, clock_period_ns, derate, wire_load)


class _TimingArrays:
    """Structure-only timing arrays for one compiled net view.

    Everything load- and derate-independent is precomputed once per
    flat module: the edge list as parallel numpy columns (source net,
    destination net, intrinsic delay, drive resistance), the level
    schedules :func:`~repro.rtl.netview.levelize` gives the nets,
    launch/capture boundary tables, and per-edge provenance for path
    traceback.  The per-call work in :func:`_analyze_view` is then a
    handful of vectorized passes over these arrays, one per level.
    """

    __slots__ = (
        "n_nets", "src", "dst", "d0", "r", "edge_inst", "arc_block_ends",
        "arc_blocks", "no_fanin", "fwd", "fwd_levels", "bwd", "bwd_levels",
        "input_start_ids", "seq_q_ids", "seq_q_clk2q", "seq_q_r",
        "ep_ids", "ep_setup", "ep_kinds", "is_start",
    )

    def __init__(self, view: NetView) -> None:
        module = view.module
        n = view.n_nets
        self.n_nets = n
        net_id = view.net_id
        clock_mask = np.zeros(n, dtype=bool)
        for c in module.clock_nets:
            cid = net_id.get(c)
            if cid is not None:
                clock_mask[cid] = True
        has_clocks = bool(module.clock_nets)

        srcs: List[np.ndarray] = []
        dsts: List[np.ndarray] = []
        d0s: List[np.ndarray] = []
        rs: List[np.ndarray] = []
        einst: List[np.ndarray] = []
        arc_blocks: List[Tuple[object, object]] = []  # (cell, arc)
        block_ends: List[int] = []
        total = 0
        for group in view.groups:
            cell = group.cell
            if cell.is_sequential:
                continue
            pin_index = {p: j for j, p in enumerate(cell.input_caps_ff)}
            out_index = {o: j for j, o in enumerate(cell.outputs)}
            for arc in cell.arcs:
                i = pin_index.get(arc.input_pin)
                o = out_index.get(arc.output_pin)
                if i is None or o is None:
                    continue
                s = group.in_ids[:, i]
                t = group.out_ids[:, o]
                valid = (s >= 0) & (t >= 0)
                if has_clocks and valid.any():
                    valid &= ~clock_mask[np.where(valid, s, 0)]
                count = int(np.count_nonzero(valid))
                if count == 0:
                    continue
                srcs.append(s[valid])
                dsts.append(t[valid])
                d0s.append(np.full(count, arc.d0_ns))
                rs.append(np.full(count, arc.r_kohm))
                einst.append(group.inst_idx[valid])
                total += count
                arc_blocks.append((cell, arc))
                block_ends.append(total)
        if srcs:
            self.src = np.concatenate(srcs)
            self.dst = np.concatenate(dsts)
            self.d0 = np.concatenate(d0s)
            self.r = np.concatenate(rs)
            self.edge_inst = np.concatenate(einst)
        else:
            self.src = np.zeros(0, dtype=np.int64)
            self.dst = np.zeros(0, dtype=np.int64)
            self.d0 = np.zeros(0)
            self.r = np.zeros(0)
            self.edge_inst = np.zeros(0, dtype=np.int64)
        self.arc_blocks = arc_blocks
        self.arc_block_ends = np.asarray(block_ends, dtype=np.int64)

        # Net levels and the FIFO-Kahn net order of the graph-based
        # reference (tests/reference/sta.py): an edge's rank in that
        # queue walk is (position of its source, edge index).
        src, dst = self.src, self.dst
        n_edges = int(src.size)
        level, order = levelize(n, src, dst)
        relaxed = int(np.count_nonzero(level[src] >= 0))
        if relaxed != n_edges:
            raise TimingError(
                f"combinational cycle detected: relaxed "
                f"{relaxed} of {n_edges} arcs"
            )
        self.no_fanin = level == 0
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(order.size)
        # Forward: the edges into each level's nets, by destination, then
        # by rank, so a destination's first best candidate is the queue's
        # winner (positions are level-major).  Backward: the edges out of
        # each level's nets.
        self.fwd = np.argsort(position[dst] * n + position[src], kind="stable")
        self.fwd_levels = _level_slices(level[dst[self.fwd]], dst[self.fwd])
        self.bwd = np.argsort(level[src], kind="stable")
        self.bwd_levels = _level_slices(level[src[self.bwd]], None)[::-1]

        # Launch points: non-clock input ports at offset 0, register Q
        # pins at clock-to-Q plus the (load-dependent) output RC term.
        self.input_start_ids = np.asarray(
            [
                net_id[p]
                for p in module.input_ports
                if not clock_mask[net_id[p]]
            ],
            dtype=np.int64,
        )
        q_ids: List[int] = []
        q_clk2q: List[float] = []
        q_r: List[float] = []
        endpoints: Dict[int, Tuple[str, float]] = {}
        for port in module.output_ports:
            endpoints[net_id[port]] = ("output", 0.0)
        seq_idx: List[int] = []
        for group in view.groups:
            if group.cell.is_sequential:
                seq_idx.extend(group.inst_idx.tolist())
        seq_idx.sort()  # endpoint insertion order = instance order
        q_drive: Dict[str, float] = {}
        for idx in seq_idx:
            cell = view.cells[idx]
            conn = module.instances[idx].conn
            q_net = conn.get("Q")
            if q_net is not None:
                r = q_drive.get(cell.name)
                if r is None:
                    r = q_drive[cell.name] = cell.worst_arc_to("Q").r_kohm
                q_ids.append(net_id[q_net])
                q_clk2q.append(cell.clk_to_q_ns)
                q_r.append(r)
            d_net = conn.get("D")
            if d_net is not None:
                d_id = net_id[d_net]
                prev = endpoints.get(d_id)
                setup = max(cell.setup_ns, prev[1] if prev else 0.0)
                endpoints[d_id] = ("setup", setup)
        self.seq_q_ids = np.asarray(q_ids, dtype=np.int64)
        self.seq_q_clk2q = np.asarray(q_clk2q)
        self.seq_q_r = np.asarray(q_r)
        self.ep_ids = np.fromiter(endpoints, dtype=np.int64, count=len(endpoints))
        self.ep_setup = np.asarray([setup for _, setup in endpoints.values()])
        self.ep_kinds = [kind for kind, _ in endpoints.values()]
        is_start = np.zeros(n, dtype=bool)
        if self.input_start_ids.size:
            is_start[self.input_start_ids] = True
        if self.seq_q_ids.size:
            is_start[self.seq_q_ids] = True
        self.is_start = is_start


def _level_slices(levels: np.ndarray, heads: Optional[np.ndarray]) -> list:
    """``(lo, hi, starts, counts, heads)`` per level of a level-sorted
    edge order: the level's slice and, given the edges' ``heads``, each
    run of equal heads in it (relative start, length, head)."""
    if not levels.size:
        return []
    cuts = [0, *(np.flatnonzero(np.diff(levels)) + 1).tolist(), levels.size]
    if heads is None:
        return [(lo, hi, None, None, None) for lo, hi in zip(cuts, cuts[1:])]
    runs = np.flatnonzero(np.concatenate(([True], heads[1:] != heads[:-1])))
    counts = np.diff(np.append(runs, heads.size))
    at = np.searchsorted(runs, cuts)
    starts = runs - np.repeat(cuts[:-1], np.diff(at))
    heads, at = heads[runs], at.tolist()
    return [
        (lo, hi, starts[a:b], counts[a:b], heads[a:b])
        for lo, hi, a, b in zip(cuts, cuts[1:], at, at[1:])
    ]


def _timing_arrays(view: NetView) -> _TimingArrays:
    arrays = view.derived.get("sta")
    if arrays is None:
        arrays = view.derived["sta"] = _TimingArrays(view)
    return arrays


def _propagate_view(
    view: NetView,
    derate: float,
    wire_load: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrival propagation over a view: ``(arrivals, parent, slews)``.

    Arrivals are independent of the clock period, so the pass is cached
    on the view for the latest ``(wire_load, derate)`` pair, the wire
    load by identity — ``analyze`` and ``minimum_period_ns`` on the same
    placed design (the signoff pair the implementation flow always
    runs, both handed the routing estimate's one cap array) propagate
    once.  The cache holds a single entry, so callers cycling through
    fresh wire-load arrays replace rather than accumulate state.
    """
    cached = view.derived.get("sta_prop")
    if (
        cached is not None
        and cached[2] is wire_load
        and cached[3] == derate
    ):
        return cached[0], cached[1], cached[4]

    ta = _timing_arrays(view)
    n = ta.n_nets
    load = net_loads_vector(view, wire_load)

    # Launch offsets (max over the registers driving each Q net).
    offset = np.zeros(n)
    if ta.seq_q_ids.size:
        launch = ta.seq_q_clk2q + ta.seq_q_r * load[ta.seq_q_ids] * 1e-3
        np.maximum.at(offset, ta.seq_q_ids, launch)

    arrivals = np.where(ta.no_fanin, 0.0, -np.inf)
    arrivals[ta.is_start] = offset[ta.is_start]
    slews = np.full(n, START_SLEW_NS)
    parent = np.full(n, -1, dtype=np.int64)

    # One vectorized relax per level, in the reference queue's
    # arithmetic (arc_delay_ns/arc_slew_ns expression order).  Each
    # destination takes its largest candidate, the first in queue order
    # on ties, and only when it beats the arrival it has.  Subcircuits
    # of a few hundred arcs run slower than a scalar relax would;
    # macros of 8x8 and up break even or win.
    fwd = ta.fwd
    src = ta.src[fwd]
    base = ta.d0[fwd] + ta.r[fwd] * load[ta.dst[fwd]] * 1e-3
    eslew = SLEW_GAIN * base
    for lo, hi, starts, counts, heads in ta.fwd_levels:
        s = src[lo:hi]
        cand = arrivals[s] + (base[lo:hi] + SLEW_SENSITIVITY * slews[s]) * derate
        best = np.fmax.reduceat(cand, starts)
        hits = np.flatnonzero(cand == np.repeat(best, counts))
        up = best > arrivals[heads]
        win = hits[np.searchsorted(hits, starts[up])]
        heads = heads[up]
        arrivals[heads] = cand[win]
        slews[heads] = eslew[win + lo]
        parent[heads] = fwd[win + lo]

    view.derived["sta_prop"] = (arrivals, parent, wire_load, derate, slews)
    return arrivals, parent, slews


def _analyze_view(
    view: NetView,
    clock_period_ns: float,
    derate: float = 1.0,
    wire_load: Optional[np.ndarray] = None,
) -> TimingReport:
    """Vectorized arrival propagation + slack extraction over a view."""
    if clock_period_ns <= 0.0:
        raise TimingError("clock period must be positive")
    if derate <= 0.0:
        raise TimingError("derate must be positive")
    ta = _timing_arrays(view)
    arrivals, parent, _ = _propagate_view(view, derate, wire_load)

    if not ta.ep_ids.size:
        raise TimingError("design has no timing endpoints")
    names = view.net_names
    ep_arrival = arrivals[ta.ep_ids]
    ep_arrival[ep_arrival == -np.inf] = 0.0
    slacks = clock_period_ns - ta.ep_setup - ep_arrival
    worst = int(np.argmin(slacks))
    worst_id = int(ta.ep_ids[worst])
    endpoint_slacks = dict(zip([names[i] for i in ta.ep_ids.tolist()], slacks.tolist()))

    # Traceback over parent edge ids.
    path: List[PathStep] = []
    net = worst_id
    instances = view.module.instances
    guard = 0
    while parent[net] >= 0:
        e = int(parent[net])
        block = int(np.searchsorted(ta.arc_block_ends, e, side="right"))
        cell, arc = ta.arc_blocks[block]
        path.append(
            PathStep(
                instance=instances[int(ta.edge_inst[e])].name,
                cell=cell.name,
                input_pin=arc.input_pin,
                output_pin=arc.output_pin,
                net=names[net],
                arrival_ns=float(arrivals[net]),
            )
        )
        net = int(ta.src[e])
        guard += 1
        if guard > 1_000_000:  # pragma: no cover - defensive
            raise TimingError("path traceback did not terminate")
    path.reverse()

    return TimingReport(
        clock_period_ns=clock_period_ns,
        critical_path_ns=float(ep_arrival[worst] + ta.ep_setup[worst]),
        wns_ns=float(slacks[worst]),
        endpoint=names[worst_id],
        endpoint_kind=ta.ep_kinds[worst],
        path=tuple(path),
        endpoint_slacks=endpoint_slacks,
    )


def _required_times(
    view: NetView,
    clock_period_ns: float,
    derate: float,
    wire_load: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward + backward pass: per-net arrivals and requireds, and
    per-edge delays.

    The backward pass pulls required times back one source level at a
    time, deepest first — every edge's destination is final before the
    edge is visited, mirroring the forward discipline exactly, so
    ``required - arrival`` is the classic per-net slack.
    """
    if clock_period_ns <= 0.0:
        raise TimingError("clock period must be positive")
    if derate <= 0.0:
        raise TimingError("derate must be positive")
    ta = _timing_arrays(view)
    if not ta.ep_ids.size:
        raise TimingError("design has no timing endpoints")
    arrivals, _, slews = _propagate_view(view, derate, wire_load)

    load = net_loads_vector(view, wire_load)
    required = np.full(ta.n_nets, np.inf)
    required[ta.ep_ids] = clock_period_ns - ta.ep_setup
    base = ta.d0 + ta.r * load[ta.dst] * 1e-3
    delays = (base + SLEW_SENSITIVITY * slews[ta.src]) * derate
    bwd = ta.bwd
    src, dst, delay = ta.src[bwd], ta.dst[bwd], delays[bwd]
    for lo, hi, *_ in ta.bwd_levels:
        np.minimum.at(required, src[lo:hi], required[dst[lo:hi]] - delay[lo:hi])
    return arrivals, required, delays


def instance_slacks(
    module: Module,
    library: StdCellLibrary,
    clock_period_ns: float,
    wire_load: Optional[np.ndarray] = None,
    derate: float = 1.0,
) -> Dict[str, float]:
    """Worst setup slack through each combinational instance.

    For every timing arc ``s -> t`` of an instance the edge slack is
    ``required[t] - arrival[s] - delay``; the instance's slack is the
    minimum over its arcs — how much slower this one cell could get
    before some endpoint misses the period.  Instances with no
    constrained arcs (sequential cells, tie cells, logic feeding only
    dangling nets) report ``+inf``: they never bound the period, so
    leakage-recovery passes may treat them as freely swappable.
    """
    view = net_view(module, library)
    ta = _timing_arrays(view)
    arrivals, required, delays = _required_times(
        view, clock_period_ns, derate, wire_load
    )
    slacks = np.full(view.n_instances, np.inf)
    np.minimum.at(
        slacks, ta.edge_inst, required[ta.dst] - arrivals[ta.src] - delays
    )
    return dict(zip([inst.name for inst in module.instances], slacks.tolist()))


def minimum_period_ns(
    module: Module,
    library: StdCellLibrary,
    wire_load: Optional[np.ndarray] = None,
    derate: float = 1.0,
) -> float:
    """Smallest period with non-negative slack (critical path + setup)."""
    view = net_view(module, library)
    report = _analyze_view(view, clock_period_ns=1e9, derate=derate,
                           wire_load=wire_load)
    return 1e9 - report.wns_ns
