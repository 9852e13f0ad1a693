"""Dynamic and leakage power estimation.

Combines the activity map with the capacitance and energy data of the
cell library:

* *net switching power* — ``0.5 * C_net * Vdd^2 * D(net) * f`` per net;
* *cell internal power* — each output toggle spends the characterized
  internal energy (short-circuit + internal node charge);
* *memory read energy* — bitcell read events per cycle;
* *leakage* — per-cell static power, voltage-derated through the
  process model.

Voltage scaling uses the process's CV^2 energy rule so one nominal-
voltage analysis serves the whole shmoo sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from ..errors import SimulationError
from ..rtl.ir import Module
from ..rtl.netview import NetView, net_view
from ..sta.graph import net_loads_vector
from ..tech.process import Process
from ..tech.stdcells import StdCellLibrary
from .activity import NetActivity, _propagate_arrays


@dataclass(frozen=True)
class PowerReport:
    """Breakdown of one power analysis run (mW at the analysis corner)."""

    frequency_mhz: float
    vdd: float
    switching_mw: float
    internal_mw: float
    memory_mw: float
    leakage_mw: float

    @property
    def dynamic_mw(self) -> float:
        return self.switching_mw + self.internal_mw + self.memory_mw

    @property
    def total_mw(self) -> float:
        return self.dynamic_mw + self.leakage_mw

    @property
    def energy_per_cycle_pj(self) -> float:
        if self.frequency_mhz <= 0:
            raise SimulationError("frequency must be positive")
        return self.dynamic_mw / self.frequency_mhz * 1e3

    def describe(self) -> str:
        return (
            f"power @{self.frequency_mhz:.0f} MHz, {self.vdd:.2f} V: "
            f"total {self.total_mw:.3f} mW "
            f"(net {self.switching_mw:.3f}, internal {self.internal_mw:.3f}, "
            f"memory {self.memory_mw:.3f}, leak {self.leakage_mw:.3f})"
        )


class _PowerTerms:
    """Activity-independent power tables for one compiled net view.

    Built by each :func:`estimate_power` call (a compile estimates power
    once per view; corner signoff rescales that report): total leakage,
    the registers' clock-pin capacitance, and flat (net id, energy)
    arrays for cell internal energy and memory read energy, so the
    estimate reduces to a few dot products against the density vector.
    """

    __slots__ = (
        "leakage_nw", "seq_ck_cap_ff", "internal_ids", "internal_fj",
        "memory_ids", "memory_fj",
    )

    def __init__(self, view: NetView) -> None:
        leakage = 0.0
        seq_ck_cap = 0.0
        internal_ids: list = []
        internal_fj: list = []
        memory_ids: list = []
        memory_fj: list = []
        for group in view.groups:
            cell = group.cell
            count = len(group)
            leakage += cell.leakage_nw * count
            if cell.is_memory:
                # Read energy is spent per word-line transition.
                e_rd = cell.internal_energy_fj.get("RD", 0.0)
                wl_col = None
                for j, pin in enumerate(cell.input_caps_ff):
                    if pin == "WL":
                        wl_col = j
                        break
                if wl_col is not None and e_rd:
                    ids = group.in_ids[:, wl_col]
                    ids = ids[ids >= 0]
                    memory_ids.append(ids)
                    memory_fj.append(np.full(ids.size, e_rd))
                continue
            if cell.is_sequential:
                seq_ck_cap += cell.input_caps_ff.get(cell.clk_pin, 0.0) * count
            out_index = {o: j for j, o in enumerate(cell.outputs)}
            for out_pin, energy_fj in cell.internal_energy_fj.items():
                j = out_index.get(out_pin)
                if j is None:
                    continue
                ids = group.out_ids[:, j]
                ids = ids[ids >= 0]
                if ids.size:
                    internal_ids.append(ids)
                    internal_fj.append(np.full(ids.size, energy_fj))
        self.leakage_nw = leakage
        self.seq_ck_cap_ff = seq_ck_cap
        if internal_ids:
            self.internal_ids = np.concatenate(internal_ids)
            self.internal_fj = np.concatenate(internal_fj)
        else:
            self.internal_ids = np.zeros(0, dtype=np.int64)
            self.internal_fj = np.zeros(0)
        if memory_ids:
            self.memory_ids = np.concatenate(memory_ids)
            self.memory_fj = np.concatenate(memory_fj)
        else:
            self.memory_ids = np.zeros(0, dtype=np.int64)
            self.memory_fj = np.zeros(0)


def estimate_power(
    module: Module,
    library: StdCellLibrary,
    process: Process,
    frequency_mhz: float,
    vdd: float = 0.0,
    input_stats: Optional[Mapping[str, NetActivity]] = None,
    wire_load: Optional[np.ndarray] = None,
) -> PowerReport:
    """Estimate power of a flat module, propagating switching activity
    from ``input_stats``."""
    if frequency_mhz <= 0:
        raise SimulationError("frequency must be positive")
    vdd = vdd or process.vdd_nominal
    view = net_view(module, library)
    _prob, dens_l, known_l, _extra = _propagate_arrays(view, input_stats)
    known = np.asarray(known_l, dtype=bool)
    density = np.where(known, np.asarray(dens_l), 0.0)
    loads = net_loads_vector(view, wire_load)
    terms = _PowerTerms(view)
    e_scale = process.energy_scale(vdd)
    l_scale = process.leakage_scale(vdd)

    # Net switching: 0.5 C V^2 per transition; D counts transitions/cycle.
    v_nom = process.vdd_nominal
    half_v2 = 0.5 * v_nom * v_nom
    switching_fj_per_cycle = half_v2 * float(loads @ density)

    internal_fj_per_cycle = float(
        terms.internal_fj @ density[terms.internal_ids]
    )
    # Clock pin energy: the clock toggles twice per cycle into each
    # register's clock cap even when Q is quiet.
    internal_fj_per_cycle += half_v2 * terms.seq_ck_cap_ff * 2.0
    memory_fj_per_cycle = float(terms.memory_fj @ density[terms.memory_ids])
    leakage_nw = terms.leakage_nw

    # fJ/cycle * MHz = nW; /1e6 -> mW.  Energy scales with (V/Vnom)^2.
    to_mw = frequency_mhz * 1e-6 * e_scale
    return PowerReport(
        frequency_mhz=frequency_mhz,
        vdd=vdd,
        switching_mw=switching_fj_per_cycle * to_mw,
        internal_mw=internal_fj_per_cycle * to_mw,
        memory_mw=memory_fj_per_cycle * to_mw,
        leakage_mw=leakage_nw * l_scale * 1e-6,
    )


def sparsity_input_stats(
    module: Module,
    input_one_probability: float = 0.5,
    weight_one_probability: float = 0.5,
) -> Dict[str, NetActivity]:
    """Build port statistics for a DCIM workload.

    The serial input bits toggle at most once per cycle, at the rate
    their one-probability allows; sparse activations lower both the
    one-probability and the density.  Weight nets (``wb``) are
    quasi-static during MAC bursts — density 0 — but their
    one-probability still shapes the product statistics (``wb``
    carries complements, hence ``1 - p``).
    """
    stats: Dict[str, NetActivity] = {}
    for net in module.input_ports:
        if net.startswith("x["):
            p = input_one_probability
            stats[net] = NetActivity(p, min(1.0, 2 * p * (1 - p) + 1e-9))
        elif net.startswith("wb["):
            stats[net] = NetActivity(1.0 - weight_one_probability, 0.0)
        elif net.startswith(("neg", "clear", "sub[", "sel[", "we")):
            stats[net] = NetActivity(0.2, 0.25)
    return stats
