"""Reference copies of the activity propagation of ``repro.power.activity``.

The original, obviously-correct per-cell walk — a scalar truth-table
enumeration per cell and a dictionary-driven topological propagation —
kept verbatim as the executable specification
``tests/test_vector_kernels.py`` pins the vectorized path to, plus
``_cell_output_stats``, the per-cell entry into the shipped kernel the
same tests compare it with.  Only the imports differ (absolute, and the
constants and the kernel cache come from the shipped module), and each
truth-table row is read through ``Cell.evaluate``, the cell's logic.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import SimulationError
from repro.power.activity import (
    CLOCK_DENSITY,
    DEFAULT_DENSITY,
    DEFAULT_PROBABILITY,
    GLITCH_DENSITY_CAP,
    NetActivity,
    _kernel,
)
from repro.rtl.ir import Module
from repro.tech.stdcells import Cell, StdCellLibrary


def _cell_output_stats(
    cell: Cell,
    in_probs: Mapping[str, float],
    in_densities: Mapping[str, float],
) -> Dict[str, NetActivity]:
    """Exact probability and Najm density for every cell output."""
    kernel = _kernel(cell)
    probs = tuple(
        in_probs.get(pin, DEFAULT_PROBABILITY) for pin in cell.inputs
    )
    densities = tuple(
        in_densities.get(pin, DEFAULT_DENSITY) for pin in cell.inputs
    )
    acts = kernel.evaluate_key(probs + densities)
    return dict(zip(cell.outputs, acts))


def _cell_output_stats_reference(
    cell: Cell,
    in_probs: Mapping[str, float],
    in_densities: Mapping[str, float],
) -> Dict[str, NetActivity]:
    """Scalar truth-table walk the vectorized kernel must agree with."""
    pins = list(cell.input_caps_ff)
    if cell.truth_table is None:
        raise SimulationError(f"{cell.name} has no logic function for activity")
    n = len(pins)
    out_prob: Dict[str, float] = {o: 0.0 for o in cell.outputs}
    sens_prob: Dict[Tuple[str, str], float] = {
        (o, p): 0.0 for o in cell.outputs for p in pins
    }
    for assignment in itertools.product((0, 1), repeat=n):
        vec = dict(zip(pins, assignment))
        weight = 1.0
        for pin, val in vec.items():
            p = in_probs.get(pin, DEFAULT_PROBABILITY)
            weight *= p if val else (1.0 - p)
        if weight == 0.0:
            continue
        outs = cell.evaluate(vec)
        for o, val in outs.items():
            if val:
                out_prob[o] += weight
        # Boolean difference: toggle input i, see which outputs flip.
        for i, pin in enumerate(pins):
            flipped = dict(vec)
            flipped[pin] = 1 - flipped[pin]
            # Weight of the *other* inputs only.
            p_i = in_probs.get(pin, DEFAULT_PROBABILITY)
            base = p_i if vec[pin] else (1.0 - p_i)
            if base == 0.0:
                continue
            other_weight = weight / base
            outs_f = cell.evaluate(flipped)
            for o in cell.outputs:
                if outs.get(o, 0) != outs_f.get(o, 0):
                    sens_prob[(o, pin)] += 0.5 * other_weight
    result: Dict[str, NetActivity] = {}
    for o in cell.outputs:
        density = sum(
            sens_prob[(o, p)] * in_densities.get(p, DEFAULT_DENSITY)
            for p in pins
        )
        density = min(density, GLITCH_DENSITY_CAP)
        result[o] = NetActivity(min(max(out_prob[o], 0.0), 1.0), density)
    return result


def propagate_activity_reference(
    module: Module,
    library: StdCellLibrary,
    input_stats: Optional[Mapping[str, NetActivity]] = None,
) -> Dict[str, NetActivity]:
    """The original per-cell dictionary walk, kept as the executable
    specification the vectorized path is tested against."""
    stats: Dict[str, NetActivity] = {}
    clock_nets = set(module.clock_nets)
    for net in module.input_ports:
        if net in clock_nets:
            stats[net] = NetActivity(0.5, CLOCK_DENSITY)
        else:
            stats[net] = NetActivity(DEFAULT_PROBABILITY, DEFAULT_DENSITY)
    if input_stats:
        stats.update(input_stats)

    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        if cell.is_sequential:
            q_net = inst.conn.get("Q")
            if q_net is not None:
                stats.setdefault(q_net, NetActivity(0.5, 0.5))
        elif cell.is_memory:
            rd = inst.conn.get("RD")
            if rd is not None:
                stats.setdefault(rd, NetActivity(0.5, 0.0))

    indegree: Dict[str, int] = {}
    consumers: Dict[str, list] = {}
    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        if cell.is_sequential or cell.is_memory:
            continue
        unresolved = 0
        for pin in cell.input_caps_ff:
            net = inst.conn.get(pin)
            if net is None or net in stats:
                continue
            unresolved += 1
            consumers.setdefault(net, []).append(inst)
        indegree[inst.name] = unresolved

    queue = deque(
        inst for inst in module.instances
        if indegree.get(inst.name, -1) == 0
    )
    resolved_nets = set(stats)

    def resolve(inst) -> None:
        cell = library.cell(inst.cell_name)
        in_p = {}
        in_d = {}
        for pin in cell.input_caps_ff:
            net = inst.conn.get(pin)
            s = stats.get(net, NetActivity(DEFAULT_PROBABILITY, DEFAULT_DENSITY))
            in_p[pin] = s.probability
            in_d[pin] = s.density
        outs = _cell_output_stats_reference(cell, in_p, in_d)
        for o, act in outs.items():
            net = inst.conn.get(o)
            if net is None:
                continue
            stats[net] = act
            if net not in resolved_nets:
                resolved_nets.add(net)
                for consumer in consumers.get(net, ()):  # type: ignore[arg-type]
                    indegree[consumer.name] -= 1
                    if indegree[consumer.name] == 0:
                        queue.append(consumer)

    resolved_cells = 0
    while queue:
        resolve(queue.popleft())
        resolved_cells += 1
    if resolved_cells != len(indegree):
        raise SimulationError(
            f"activity propagation stalled: {resolved_cells} of "
            f"{len(indegree)} combinational cells resolved "
            "(combinational cycle?)"
        )

    for inst in module.instances:
        cell = library.cell(inst.cell_name)
        if not cell.is_sequential:
            continue
        d_net = inst.conn.get("D")
        q_net = inst.conn.get("Q")
        if d_net in stats and q_net is not None:
            p = stats[d_net].probability
            stats[q_net] = NetActivity(p, 2.0 * p * (1.0 - p))
    return stats
