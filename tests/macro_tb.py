"""Shared gate-level testbench for full-macro simulations."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np
from reference.formats import decode_int
from reference.gatesim import GateSimulator

from repro.arch import MacroArchitecture
from repro.rtl.gen.macro import generate_macro
from repro.sim.formats import encode_int
from repro.sim.functional import DCIMMacroModel
from repro.spec import MacroSpec
from repro.tech.stdcells import default_library


class MacroTestbench:
    """Drives a generated digital macro netlist cycle-accurately."""

    def __init__(self, spec: MacroSpec, arch: MacroArchitecture) -> None:
        self.spec = spec
        self.arch = arch
        module, self.shape = generate_macro(spec, arch)
        self.flat = module.flatten()
        self.sim = GateSimulator(self.flat, default_library())
        self.model = DCIMMacroModel(spec, arch)
        # Cycles until the first serial bit's tree count reaches the S&A.
        self.lpre = (
            1
            + (1 if arch.reg_after_tree else 0)
            + (1 if arch.column_split > 1 else 0)
        )

    def load_weights(self, bank: int, weights: np.ndarray, fmt) -> None:
        self.model.set_weights_int(bank, weights, fmt)
        bits = self.model.weight_bits(bank)
        h, w, mcr = self.spec.height, self.spec.width, self.spec.mcr
        for r in range(h):
            for c in range(w):
                self.sim.set_input(
                    f"wb[{(r * mcr + bank) * w + c}]", 1 - int(bits[r, c])
                )

    def select_bank(self, bank: int) -> None:
        mcr = self.spec.mcr
        for i in range(int(math.log2(mcr)) if mcr > 1 else 0):
            self.sim.set_input(f"sel[{i}]", (bank >> i) & 1)

    def run_mac(self, x: Sequence[int], bank: int = 0) -> List[int]:
        """Feed one input vector and return the fused outputs."""
        spec, sim = self.spec, self.sim
        k = spec.input_width
        xbits = [encode_int(int(v), k) for v in x]
        self.select_bank(bank)
        for i, s in enumerate(self.model.sub_controls()):
            sim.set_input(f"sub[{i}]", s)
        sim.reset_state()
        for cyc in range(self.shape.latency_cycles):
            for r in range(spec.height):
                bit = xbits[r][k - 1 - cyc] if cyc < k else 0
                sim.set_input(f"x[{r}]", bit)
            ctrl = 1 if cyc == self.lpre else 0
            sim.set_input("neg", ctrl)
            sim.set_input("clear", ctrl)
            sim.clock()
        width = self.shape.ofu_output_width
        return [
            decode_int(
                [sim.net(f"y[{g * width + i}]") for i in range(width)]
            )
            for g in range(self.shape.n_groups)
        ]

    def expected(self, x: Sequence[int], bank: int = 0) -> List[int]:
        return self.model.mac_ideal(list(x), bank)
