"""Reference copy of the scalar two-value levelized gate-level simulator.

It verified generated netlists against the behavioural model (the
paper's "gate-level simulation to ensure it meets frontend
requirements", Section III.D) until the vectorized batch engine,
:class:`repro.sim.vecsim.VecSim`, replaced it.  It is kept verbatim:
``tests/test_vecsim.py`` pins ``VecSim`` to it bit for bit, and the
generator and synthesis tests simulate small netlists with it.  Only the
imports differ (absolute).  The simulator:

* topologically levelizes the combinational cells of a flat module once
  (generated netlists are cycle-free by construction — a cycle raises);
* evaluates the network with the cells' characterized logic functions;
* models sequential cells with master-slave semantics on
  :meth:`GateSimulator.clock` (all D pins sampled, then all Q updated);
* lets the testbench *force* nets (used for the memory read data that a
  bitcell array would drive).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import SimulationError
from repro.rtl.ir import Instance, Module
from repro.tech.stdcells import StdCellLibrary


class GateSimulator:
    """Simulate one flat module."""

    def __init__(self, module: Module, library: StdCellLibrary) -> None:
        self.module = module
        self.library = library
        self.values: Dict[str, int] = {net: 0 for net in module.nets}
        self._forced: Dict[str, int] = {}
        self._state: Dict[str, int] = {}
        self._comb_order: List[Instance] = []
        self._seq: List[Instance] = []
        self._levelize()

    def _levelize(self) -> None:
        indegree: Dict[str, int] = {}
        consumers: Dict[str, List[Instance]] = {}
        resolved = set(self.module.input_ports)
        for inst in self.module.instances:
            cell = self.library.cell(inst.cell_name)
            if cell.is_sequential:
                q = inst.conn.get("Q")
                if not q:
                    # A flop without a Q connection has invisible state:
                    # treating it as resolved-less silently detaches its
                    # fan-out cone from the clock.  Refuse loudly.
                    raise SimulationError(
                        f"{self.module.name}: sequential cell {inst.name} "
                        f"({inst.cell_name}) has no Q connection — its "
                        "state would be invisible to the fabric"
                    )
                self._seq.append(inst)
                resolved.add(q)
                self._state[inst.name] = 0
                continue
            if cell.is_memory:
                rd = inst.conn.get("RD")
                if rd:
                    resolved.add(rd)
                continue
        for inst in self.module.instances:
            cell = self.library.cell(inst.cell_name)
            if cell.is_sequential or cell.is_memory:
                continue
            missing = 0
            for pin in cell.input_caps_ff:
                net = inst.conn.get(pin)
                if net is not None and net not in resolved:
                    missing += 1
                    consumers.setdefault(net, []).append(inst)
            indegree[inst.name] = missing
        queue = deque(
            inst
            for inst in self.module.instances
            if indegree.get(inst.name, -1) == 0
        )
        seen_nets = set(resolved)
        while queue:
            inst = queue.popleft()
            self._comb_order.append(inst)
            cell = self.library.cell(inst.cell_name)
            for pin in cell.outputs:
                net = inst.conn.get(pin)
                if net is None or net in seen_nets:
                    continue
                seen_nets.add(net)
                for consumer in consumers.get(net, ()):
                    indegree[consumer.name] -= 1
                    if indegree[consumer.name] == 0:
                        queue.append(consumer)
        expected = sum(
            1
            for inst in self.module.instances
            if not self.library.cell(inst.cell_name).is_sequential
            and not self.library.cell(inst.cell_name).is_memory
        )
        if len(self._comb_order) != expected:
            raise SimulationError(
                f"levelization failed: {len(self._comb_order)} of {expected} "
                "combinational cells ordered (cycle?)"
            )

    # -- stimulus -------------------------------------------------------------

    def set_input(self, net: str, value: int) -> None:
        if net not in self.module.ports:
            raise SimulationError(f"{net} is not a port")
        self.values[net] = int(bool(value))

    def set_bus(self, base: str, value_bits: Sequence[int]) -> None:
        for i, bit in enumerate(value_bits):
            self.set_input(f"{base}[{i}]", bit)

    def force(self, net: str, value: int) -> None:
        """Pin a net to a value (overrides any driver); used for memory
        read data."""
        if net not in self.values:
            raise SimulationError(f"unknown net {net}")
        self._forced[net] = int(bool(value))

    def release(self, net: str) -> None:
        self._forced.pop(net, None)

    # -- evaluation -------------------------------------------------------------

    def evaluate(self) -> None:
        """Propagate combinational logic from current inputs/state."""
        values = self.values
        values.update(self._forced)
        for inst in self._seq:
            q = inst.conn.get("Q")
            if q:
                values[q] = self._state[inst.name]
        for inst in self._comb_order:
            cell = self.library.cell(inst.cell_name)
            pins = {
                pin: values[inst.conn[pin]]
                for pin in cell.input_caps_ff
                if pin in inst.conn
            }
            outs = cell.evaluate(pins)
            for pin, val in outs.items():
                net = inst.conn.get(pin)
                if net is not None and net not in self._forced:
                    values[net] = val
        values.update(self._forced)

    def clock(self) -> None:
        """One rising edge: sample every D, then update every Q, then
        re-evaluate the fabric."""
        self.evaluate()
        sampled = {
            inst.name: self.values[inst.conn["D"]]
            for inst in self._seq
            if "D" in inst.conn
        }
        self._state.update(sampled)
        self.evaluate()

    def reset_state(self, value: int = 0) -> None:
        for name in self._state:
            self._state[name] = int(bool(value))

    # -- observation -----------------------------------------------------------

    def net(self, net: str) -> int:
        try:
            return self.values[net]
        except KeyError:
            raise SimulationError(f"unknown net {net}") from None

    def bus(self, base: str, width: int) -> List[int]:
        return [self.net(f"{base}[{i}]") for i in range(width)]

    def bus_int(self, base: str, width: int) -> int:
        """Two's-complement value of a bus."""
        from reference.formats import decode_int

        return decode_int(self.bus(base, width))
