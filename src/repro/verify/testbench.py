"""Vectorized full-macro testbench.

:class:`VecMacroTestbench` drives one generated DCIM macro netlist —
digital (weight-complement ports) or physical (bitcell array folded in,
read nets internal) — over a **batch** of input vectors per pass, using
:class:`repro.sim.vecsim.VecSim`.  It is the vectorized twin of the
scalar ``tests/macro_tb.MacroTestbench`` and follows the same cycle
protocol: weights loaded through the behavioural model's bit packing,
serial MSB-first input feed, ``neg``/``clear`` asserted on the cycle
the first tree count reaches the shift-adder, outputs decoded after
``latency_cycles`` edges.

Weight-net resolution:

* a *digital* macro exposes ``wb[...]`` input ports — driven directly;
* a *physical* macro (from the implementation flow) buries those nets
  behind the bitcell array.  The testbench recovers them structurally:
  every memory cell's ``WL``/``BL`` connections name the top-level
  ``wl[row]``/``bl[col]`` ports, which pin down the cell's (physical
  row, column) — and its ``RD`` net is the weight-complement net to
  drive.  This survives synthesis passes because they never rewire the
  array.
"""

from __future__ import annotations

import re
from typing import Optional, Union

import numpy as np

from ..arch import MacroArchitecture
from ..errors import SimulationError
from ..rtl.gen.macro import MacroShape, generate_macro, macro_shape
from ..sim.functional import DCIMMacroModel
from ..sim.vecsim import VecSim
from ..spec import DataFormat, MacroSpec
from ..tech.stdcells import StdCellLibrary, default_library

#: A bank choice: one bank for every lane, or one bank per lane.
BankSelect = Union[int, np.ndarray]

_PORT_INDEX = re.compile(r"\[(\d+)\]$")
_CELL_NAME = re.compile(r"cell_r(\d+)_c(\d+)$")


def _port_index(net: Optional[str]) -> Optional[int]:
    if net is None:
        return None
    m = _PORT_INDEX.search(net)
    return int(m.group(1)) if m else None


class VecMacroTestbench:
    """Drive a macro netlist batch-parallel against the golden model."""

    def __init__(
        self,
        spec: MacroSpec,
        arch: Optional[MacroArchitecture] = None,
        batch: int = 1024,
        netlist=None,
        shape: Optional[MacroShape] = None,
        library: Optional[StdCellLibrary] = None,
    ) -> None:
        self.spec = spec
        self.arch = arch or MacroArchitecture()
        self.arch.validate_against(spec)
        self.library = library or default_library()
        if netlist is None:
            module, shape = generate_macro(spec, self.arch)
            netlist = module.flatten()
        elif shape is None:
            shape = macro_shape(spec, self.arch)
        self.netlist = netlist
        self.shape = shape
        self.sim = VecSim(netlist, self.library, batch)
        self.model = DCIMMacroModel(spec, self.arch)
        # Cycles until the first serial bit's tree count reaches the S&A.
        self.lpre = (
            1
            + (1 if self.arch.reg_after_tree else 0)
            + (1 if self.arch.column_split > 1 else 0)
        )
        self._wb_ids = self._resolve_weight_nets()
        self._x_ids = np.asarray(
            [self.sim.net_id(f"x[{r}]") for r in range(spec.height)],
            dtype=np.int64,
        )
        width = shape.ofu_output_width
        self._y_ids = [
            np.asarray(
                [
                    self.sim.net_id(f"y[{g * width + i}]")
                    for i in range(width)
                ],
                dtype=np.int64,
            )
            for g in range(shape.n_groups)
        ]

    def _resolve_weight_nets(self) -> np.ndarray:
        """Net ids of the weight-complement nets, indexed by the wb
        flat index ``(row * mcr + bank) * width + col``."""
        spec = self.spec
        total = spec.height * spec.mcr * spec.width
        if "wb[0]" in self.netlist.ports:
            return np.asarray(
                [self.sim.net_id(f"wb[{i}]") for i in range(total)],
                dtype=np.int64,
            )
        ids = np.full(total, -1, dtype=np.int64)
        for inst in self.netlist.instances:
            cell = self.library.cell(inst.cell_name)
            if not cell.is_memory:
                continue
            # Primary: the array generator names every bitcell
            # cell_r<physrow>_c<col>; synthesis passes never rename
            # instances.  Fallback: the WL/BL port indices — valid
            # unless a repeater pass rewired the word line.
            m = _CELL_NAME.search(inst.name)
            if m:
                row, col = int(m.group(1)), int(m.group(2))
            else:
                row = _port_index(inst.conn.get("WL"))
                col = _port_index(inst.conn.get("BL"))
            rd = inst.conn.get("RD")
            if row is None or col is None or rd is None:
                raise SimulationError(
                    f"memory cell {inst.name} cannot be mapped to a "
                    "(row, column); cannot drive weight nets"
                )
            ids[row * spec.width + col] = self.sim.net_id(rd)
        if (ids < 0).any():
            raise SimulationError(
                "netlist has no wb ports and its bitcell array does not "
                "cover every (row, column); cannot drive weights"
            )
        return ids

    # -- weight loading ------------------------------------------------------

    def load_weights(
        self, bank: int, weights: np.ndarray, fmt: DataFormat
    ) -> None:
        """Load one bank through the model's packing, then mirror the
        stored bits onto the netlist's weight-complement nets."""
        if fmt.is_float:
            self.model.set_weights_fp(
                bank, [list(row) for row in np.asarray(weights)], fmt
            )
        else:
            self.model.set_weights_int(
                bank, np.asarray(weights, dtype=np.int64), fmt
            )
        bits = self.model.weight_bits(bank)  # (height, width)
        mcr = self.spec.mcr
        bank_ids = self._wb_ids.reshape(
            self.spec.height * mcr, self.spec.width
        )[bank::mcr]
        self.sim.drive_nets(bank_ids.reshape(-1), 1 - bits.reshape(-1))

    def select_bank(self, bank: BankSelect) -> None:
        """Drive the MCR select — a scalar for every lane, or one bank
        per lane (lanes beyond the given array read bank 0)."""
        mcr = self.spec.mcr
        n_sel = mcr.bit_length() - 1 if mcr > 1 else 0
        banks = np.asarray(bank)
        if banks.ndim == 0:
            for i in range(n_sel):
                self.sim.set_input(f"sel[{i}]", (int(banks) >> i) & 1)
            return
        full = np.zeros(self.sim.batch, dtype=np.int64)
        full[: len(banks)] = banks
        for i in range(n_sel):
            self.sim.set_input(f"sel[{i}]", (full >> i) & 1)

    # -- MAC runs ------------------------------------------------------------

    def run_mac(self, xs: np.ndarray, bank: BankSelect = 0) -> np.ndarray:
        """Feed up to ``batch`` input vectors and return the fused
        outputs, shape (len(xs), n_groups) int64."""
        spec, sim, shape = self.spec, self.sim, self.shape
        xs = np.asarray(xs, dtype=np.int64)
        n = xs.shape[0]
        if xs.ndim != 2 or xs.shape[1] != spec.height or n > sim.batch:
            raise SimulationError(
                f"expected (<= {sim.batch}, {spec.height}) inputs, "
                f"got {xs.shape}"
            )
        if n < sim.batch:
            xs = np.vstack(
                [xs, np.zeros((sim.batch - n, spec.height), dtype=np.int64)]
            )
        k = spec.input_width
        # (batch, height, k) serial bits, LSB first along the last axis.
        xbits = (
            ((xs & ((1 << k) - 1))[:, :, None] >> np.arange(k)) & 1
        ).astype(np.uint8)
        self.select_bank(bank)
        for i, s in enumerate(self.model.sub_controls()):
            sim.set_input(f"sub[{i}]", s)
        sim.reset_state()
        zeros = np.zeros((spec.height, sim.batch), dtype=np.uint8)
        for cyc in range(shape.latency_cycles):
            if cyc < k:
                rows = np.ascontiguousarray(xbits[:, :, k - 1 - cyc].T)
            else:
                rows = zeros
            sim.drive_nets(self._x_ids, rows)
            ctrl = 1 if cyc == self.lpre else 0
            sim.set_input("neg", ctrl)
            sim.set_input("clear", ctrl)
            sim.clock()
        out = np.stack(
            [sim.bus_ids_int(ids) for ids in self._y_ids], axis=1
        )
        return out[:n]

    def expected(self, xs: np.ndarray, bank: BankSelect = 0) -> np.ndarray:
        """Golden dot products, shape (len(xs), n_groups) int64."""
        xs = np.asarray(xs, dtype=np.int64)
        banks = np.asarray(bank)
        if banks.ndim == 0:
            return xs @ self.model.group_weights(int(banks))
        w = np.stack(
            [self.model.group_weights(b) for b in range(self.spec.mcr)]
        )
        return np.einsum("nh,nhg->ng", xs, w[banks])
