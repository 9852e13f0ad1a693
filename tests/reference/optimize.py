"""Reference copies of the synthesis passes of ``repro.synth.optimize``.

The original per-pass rebuild implementations — each pass walks the
module instance by instance and builds a new :class:`Module`, leaving
its input untouched — kept verbatim so ``tests/test_layout_kernels.py``
can pin the in-place passes the flow runs (one shared driver/load index
over the compiled NetView) to them netlist-for-netlist.  Only the
imports (absolute; the fanout limit comes from the shipped module) and
the docstring cross-references, now fully qualified, differ.  The
constant-folding pass is gone from both sides: it folded no gate of
any generated macro.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from repro.rtl.ir import Instance, Module
from repro.synth.optimize import FANOUT_LIMIT
from repro.tech.stdcells import StdCellLibrary


def sweep_dead_logic_reference(
    module: Module, library: StdCellLibrary
) -> Tuple[Module, int]:
    """Original rebuild implementation of :func:`repro.synth.optimize.sweep_dead_logic`."""
    loads: Dict[str, List[Instance]] = {}
    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        for pin in cell.input_caps_ff:
            net = inst.conn.get(pin)
            if net is not None:
                loads.setdefault(net, []).append(inst)

    live: Set[str] = set()
    queue: deque = deque()
    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        if cell.is_sequential or cell.is_memory:
            live.add(inst.name)
            queue.append(inst)
    out_ports = set(module.output_ports)

    drivers: Dict[str, Instance] = {}
    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        for pin in cell.outputs:
            net = inst.conn.get(pin)
            if net is not None:
                drivers[net] = inst

    for port in out_ports:
        drv = drivers.get(port)
        if drv is not None and drv.name not in live:
            live.add(drv.name)
            queue.append(drv)

    while queue:
        inst = queue.popleft()
        cell = library.cell(inst.cell_name)
        for pin in cell.input_caps_ff:
            net = inst.conn.get(pin)
            if net is None:
                continue
            drv = drivers.get(net)
            if drv is not None and drv.name not in live:
                live.add(drv.name)
                queue.append(drv)

    removed = len(module.instances) - len(live)
    if removed == 0:
        return module, 0
    out = Module(module.name)
    for port in module.ports.values():
        out.add_port(port.name, port.direction)
    out.set_clocks(module.clock_nets)
    for inst in module.instances:
        if inst.name in live:
            out.add_instance(inst.name, inst.ref, inst.conn)
    return out, removed


def buffer_high_fanout_reference(
    module: Module,
    library: StdCellLibrary,
    limit: int = FANOUT_LIMIT,
) -> Tuple[Module, int]:
    """Original single-round implementation of
    :func:`repro.synth.optimize.buffer_high_fanout`
    (a net with more than ``limit**2`` sinks leaves the repeater source
    net above the limit — the in-place pass iterates to fix that)."""
    loads: Dict[str, List[Tuple[Instance, str]]] = {}
    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        for pin in cell.input_caps_ff:
            net = inst.conn.get(pin)
            if net is not None:
                loads.setdefault(net, []).append((inst, pin))

    clock_nets = set(module.clock_nets)
    heavy = {
        net: sinks
        for net, sinks in loads.items()
        if len(sinks) > limit and net not in clock_nets
    }
    if not heavy:
        return module, 0

    out = Module(module.name)
    for port in module.ports.values():
        out.add_port(port.name, port.direction)
    out.set_clocks(module.clock_nets)
    # Plan the rewiring: (instance, pin) -> new net.
    rewire: Dict[Tuple[str, str], str] = {}
    new_buffers: List[Tuple[str, str, str]] = []  # (name, src, dst)
    added = 0
    for net, sinks in heavy.items():
        n_branches = -(-len(sinks) // limit)
        for b in range(n_branches):
            branch_net = f"{net}__rep{b}"
            buf_name = f"fanout_buf_{added}"
            new_buffers.append((buf_name, net, branch_net))
            added += 1
            for inst, pin in sinks[b::n_branches]:
                rewire[(inst.name, pin)] = branch_net
    for inst in module.instances:
        conn = {
            pin: rewire.get((inst.name, pin), net)
            for pin, net in inst.conn.items()
        }
        out.add_instance(inst.name, inst.ref, conn)
    for name, src, dst in new_buffers:
        out.add_instance(name, "BUF_X8", {"A": src, "Y": dst})
    return out, added


def optimize_reference(
    module: Module, library: StdCellLibrary
) -> Tuple[Module, Dict[str, int]]:
    """Original pass pipeline over the rebuild implementations."""
    stats: Dict[str, int] = {}
    module, stats["dead_gates_removed"] = sweep_dead_logic_reference(
        module, library
    )
    module, stats["fanout_buffers_added"] = buffer_high_fanout_reference(
        module, library
    )
    module.validate(library)
    return module, stats


def net_loads(
    module: Module, library: StdCellLibrary
) -> Dict[str, List[Tuple[Instance, str]]]:
    """Map net -> list of (leaf instance, input pin) reading it (the
    method ``Module.net_loads`` was, before only tests called it)."""
    loads: Dict[str, List[Tuple[Instance, str]]] = {}
    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        for pin in cell.input_caps_ff:
            net = inst.conn.get(pin)
            if net is None:
                continue
            loads.setdefault(net, []).append((inst, pin))
    return loads
