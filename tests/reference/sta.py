"""Reference copy of the graph-based static timing analysis.

Before STA ran over the compiled NetView's arrays
(``repro.sta.analysis``), it built an explicit pin-level
:class:`TimingGraph` (``repro.sta.graph``) and walked it with a Kahn
queue of net names.  That version is kept here verbatim: the setup
check (``analyze_graph``, ``propagate``, ``_trace_path``), the graph
build (``build_timing_graph``, ``net_capacitance``) and the hold check
(``analyze_hold``) the flow never ran.  ``tests/test_vector_kernels.py``
pins the shipped ``analyze``, ``minimum_period_ns``, ``instance_slacks``
and ``net_loads_vector`` to it.  Only the imports (absolute; the report
types and delay model come from the shipped modules), one docstring
cross-reference and the type of ``wire_load`` (one wire cap per net id,
as the shipped analyses take it, instead of a net-name function)
differ.  The backward pass (``required_times``,
``instance_slacks``) was written for the tests: the same queue walk,
run in reverse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import TimingError
from repro.rtl.ir import Instance, Module
from repro.rtl.netview import net_view
from repro.sta.analysis import START_SLEW_NS, PathStep, TimingReport
from repro.sta.graph import net_loads_vector
from repro.tech.characterization import arc_delay_ns, arc_slew_ns
from repro.tech.stdcells import Cell, StdCellLibrary, TimingArc


@dataclass
class TimingEdge:
    """One cell arc instantiated in the design."""

    inst: Instance
    cell: Cell
    arc: TimingArc
    src_net: str
    dst_net: str


@dataclass
class TimingGraph:
    """Flattened design view ready for arrival-time propagation."""

    module: Module
    library: StdCellLibrary
    net_load_ff: Dict[str, float]
    edges_from: Dict[str, List[TimingEdge]]
    fanin_count: Dict[str, int]
    startpoints: Dict[str, float]  # net -> launch offset (ns)
    endpoints: Dict[str, Tuple[str, float]]  # net -> (kind, setup_ns)
    sequential: List[Instance] = field(default_factory=list)

    @property
    def net_count(self) -> int:
        return len(self.module.nets)


def net_capacitance(
    module: Module,
    library: StdCellLibrary,
    wire_load: Optional[np.ndarray] = None,
) -> Dict[str, float]:
    """Total load on each net: sink pin caps plus the wire model."""
    view = net_view(module, library)
    loads = net_loads_vector(view, wire_load)
    return dict(zip(view.net_names, loads.tolist()))


def build_timing_graph(
    module: Module,
    library: StdCellLibrary,
    wire_load: Optional[np.ndarray] = None,
) -> TimingGraph:
    """Construct the graph; raises on combinational cycles at traversal
    time (see :func:`propagate`)."""
    net_load = net_capacitance(module, library, wire_load)
    edges_from: Dict[str, List[TimingEdge]] = {}
    fanin_count: Dict[str, int] = {net: 0 for net in module.nets}
    startpoints: Dict[str, float] = {}
    endpoints: Dict[str, Tuple[str, float]] = {}
    sequential: List[Instance] = []

    clock_nets: Set[str] = set(module.clock_nets)
    for port in module.input_ports:
        if port not in clock_nets:
            startpoints[port] = 0.0
    for port in module.output_ports:
        endpoints[port] = ("output", 0.0)

    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        if cell.is_sequential:
            sequential.append(inst)
            q_net = inst.conn.get("Q")
            if q_net is not None:
                arc = cell.worst_arc_to("Q")
                launch = cell.clk_to_q_ns + arc.r_kohm * net_load[q_net] * 1e-3
                startpoints[q_net] = max(startpoints.get(q_net, 0.0), launch)
            d_net = inst.conn.get("D")
            if d_net is not None:
                prev = endpoints.get(d_net)
                setup = max(cell.setup_ns, prev[1] if prev else 0.0)
                endpoints[d_net] = ("setup", setup)
            continue
        for arc in cell.arcs:
            src = inst.conn.get(arc.input_pin)
            dst = inst.conn.get(arc.output_pin)
            if src is None or dst is None or src in clock_nets:
                continue
            edge = TimingEdge(inst, cell, arc, src, dst)
            edges_from.setdefault(src, []).append(edge)
            fanin_count[dst] = fanin_count.get(dst, 0) + 1

    return TimingGraph(
        module=module,
        library=library,
        net_load_ff=net_load,
        edges_from=edges_from,
        fanin_count=fanin_count,
        startpoints=startpoints,
        endpoints=endpoints,
        sequential=sequential,
    )


def analyze_graph(
    graph: TimingGraph, clock_period_ns: float, derate: float = 1.0
) -> TimingReport:
    if clock_period_ns <= 0.0:
        raise TimingError("clock period must be positive")
    if derate <= 0.0:
        raise TimingError("derate must be positive")
    arrivals, slews, parent = propagate(graph, derate)

    worst_req = float("inf")
    worst_net = ""
    worst_kind = ""
    worst_arrival = 0.0
    endpoint_slacks: Dict[str, float] = {}
    for net, (kind, setup) in graph.endpoints.items():
        arrival = arrivals.get(net, 0.0)
        slack = clock_period_ns - setup - arrival
        endpoint_slacks[net] = slack
        if slack < worst_req:
            worst_req = slack
            worst_net = net
            worst_kind = kind
            worst_arrival = arrival + setup
    if not endpoint_slacks:
        raise TimingError("design has no timing endpoints")

    path = _trace_path(graph, parent, worst_net, arrivals)
    return TimingReport(
        clock_period_ns=clock_period_ns,
        critical_path_ns=worst_arrival,
        wns_ns=worst_req,
        endpoint=worst_net,
        endpoint_kind=worst_kind,
        path=tuple(path),
        endpoint_slacks=endpoint_slacks,
    )


def propagate(
    graph: TimingGraph,
    derate: float = 1.0,
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Optional[object]]]:
    """Kahn-ordered longest-path arrival propagation.

    Returns (arrival per net, slew per net, predecessor edge per net).
    Raises :class:`TimingError` if a combinational cycle prevents a full
    topological order.
    """
    arrivals: Dict[str, float] = {}
    slews: Dict[str, float] = {}
    parent: Dict[str, Optional[object]] = {}
    indegree = dict(graph.fanin_count)

    queue: deque = deque()
    for net in graph.module.nets:
        if indegree.get(net, 0) == 0:
            arrivals[net] = graph.startpoints.get(net, 0.0)
            slews[net] = START_SLEW_NS
            parent[net] = None
            queue.append(net)

    processed = 0
    total_edges = sum(len(v) for v in graph.edges_from.values())
    relaxed = 0
    while queue:
        net = queue.popleft()
        processed += 1
        for edge in graph.edges_from.get(net, ()):  # type: ignore[arg-type]
            load = graph.net_load_ff[edge.dst_net]
            delay = arc_delay_ns(edge.arc, slews[net], load) * derate
            cand = arrivals[net] + delay
            if cand > arrivals.get(edge.dst_net, float("-inf")):
                arrivals[edge.dst_net] = cand
                slews[edge.dst_net] = arc_slew_ns(edge.arc, load)
                parent[edge.dst_net] = edge
            relaxed += 1
            indegree[edge.dst_net] -= 1
            if indegree[edge.dst_net] == 0:
                # Launch offsets (reg Q driving a net also fed by logic
                # cannot happen: single-driver rule), so only max with
                # startpoints for safety.
                start = graph.startpoints.get(edge.dst_net)
                if start is not None and start > arrivals[edge.dst_net]:
                    arrivals[edge.dst_net] = start
                    parent[edge.dst_net] = None
                queue.append(edge.dst_net)

    if relaxed != total_edges:
        raise TimingError(
            f"combinational cycle detected: relaxed {relaxed} of "
            f"{total_edges} arcs"
        )
    return arrivals, slews, parent


def _trace_path(
    graph: TimingGraph,
    parent: Dict[str, Optional[object]],
    endpoint: str,
    arrivals: Dict[str, float],
) -> List[PathStep]:
    path: List[PathStep] = []
    net = endpoint
    guard = 0
    while net in parent and parent[net] is not None:
        edge = parent[net]
        path.append(
            PathStep(
                instance=edge.inst.name,  # type: ignore[union-attr]
                cell=edge.cell.name,  # type: ignore[union-attr]
                input_pin=edge.arc.input_pin,  # type: ignore[union-attr]
                output_pin=edge.arc.output_pin,  # type: ignore[union-attr]
                net=net,
                arrival_ns=arrivals.get(net, 0.0),
            )
        )
        net = edge.src_net  # type: ignore[union-attr]
        guard += 1
        if guard > 1_000_000:  # pragma: no cover - defensive
            raise TimingError("path traceback did not terminate")
    path.reverse()
    return path


def _topological_edges(graph: TimingGraph) -> List[TimingEdge]:
    """Every arc in the order :func:`propagate`'s Kahn queue relaxes it."""
    indegree = dict(graph.fanin_count)
    queue: deque = deque(
        net for net in graph.module.nets if indegree.get(net, 0) == 0
    )
    order: List[TimingEdge] = []
    while queue:
        net = queue.popleft()
        for edge in graph.edges_from.get(net, ()):  # type: ignore[arg-type]
            order.append(edge)
            indegree[edge.dst_net] -= 1
            if indegree[edge.dst_net] == 0:
                queue.append(edge.dst_net)
    return order


def required_times(
    graph: TimingGraph, clock_period_ns: float, derate: float = 1.0
) -> Dict[str, float]:
    """Per-net required time: ``period - setup`` at each endpoint, pulled
    back through every arc in reverse topological order (each arc's
    destination is final before the arc is visited).  Nets that reach no
    endpoint are absent."""
    _arrivals, slews, _parent = propagate(graph, derate)
    required: Dict[str, float] = {}
    for net, (_kind, setup) in graph.endpoints.items():
        required[net] = clock_period_ns - setup
    for edge in reversed(_topological_edges(graph)):
        req = required.get(edge.dst_net)
        if req is None:
            continue
        load = graph.net_load_ff[edge.dst_net]
        delay = arc_delay_ns(edge.arc, slews[edge.src_net], load) * derate
        cand = req - delay
        if cand < required.get(edge.src_net, float("inf")):
            required[edge.src_net] = cand
    return required


def instance_slacks(
    graph: TimingGraph, clock_period_ns: float, derate: float = 1.0
) -> Dict[str, float]:
    """Worst ``required[dst] - arrival[src] - delay`` over each
    instance's arcs; ``inf`` for instances with no constrained arc."""
    arrivals, slews, _parent = propagate(graph, derate)
    required = required_times(graph, clock_period_ns, derate)
    slacks = {inst.name: float("inf") for inst in graph.module.instances}
    for edge in _topological_edges(graph):
        req = required.get(edge.dst_net)
        if req is None:
            continue
        load = graph.net_load_ff[edge.dst_net]
        delay = arc_delay_ns(edge.arc, slews[edge.src_net], load) * derate
        slack = req - arrivals[edge.src_net] - delay
        if slack < slacks[edge.inst.name]:
            slacks[edge.inst.name] = slack
    return slacks


@dataclass(frozen=True)
class HoldReport:
    """Result of a min-delay (hold) check."""

    worst_slack_ns: float
    endpoint: str

    @property
    def met(self) -> bool:
        return self.worst_slack_ns >= 0.0


def analyze_hold(
    module: Module,
    library: StdCellLibrary,
    wire_load: Optional[np.ndarray] = None,
) -> HoldReport:
    """Shortest-path (early-arrival) check against register hold times.

    Same-edge capture: data launched at clock-to-Q must not beat the
    capturing register's hold window.  Our single-clock, buffered-tree
    macros have no clock skew model, so slack = min_arrival - hold.
    """
    graph = build_timing_graph(module, library, wire_load)
    # External inputs are assumed to arrive with at least the hold
    # window already elapsed (standard input-delay constraint).
    input_delay = 0.05
    input_ports = set(module.input_ports)
    arrivals: Dict[str, float] = {}
    indegree = dict(graph.fanin_count)
    queue: deque = deque()
    for net in graph.module.nets:
        if indegree.get(net, 0) == 0:
            start = graph.startpoints.get(net, 0.0)
            if net in input_ports:
                start = max(start, input_delay)
            arrivals[net] = start
            queue.append(net)
    while queue:
        net = queue.popleft()
        for edge in graph.edges_from.get(net, ()):  # type: ignore[arg-type]
            load = graph.net_load_ff[edge.dst_net]
            cand = arrivals[net] + arc_delay_ns(edge.arc, START_SLEW_NS, load)
            prev = arrivals.get(edge.dst_net)
            if prev is None or cand < prev:
                arrivals[edge.dst_net] = cand
            indegree[edge.dst_net] -= 1
            if indegree[edge.dst_net] == 0:
                queue.append(edge.dst_net)

    worst = float("inf")
    worst_net = ""
    for inst in graph.sequential:
        cell = graph.library.cell(inst.cell_name)
        d_net = inst.conn.get("D")
        if d_net is None or d_net not in arrivals:
            continue
        slack = arrivals[d_net] - cell.hold_ns
        if slack < worst:
            worst = slack
            worst_net = d_net
    if worst == float("inf"):
        worst = 0.0
    return HoldReport(worst_slack_ns=worst, endpoint=worst_net)
