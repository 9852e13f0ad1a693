"""Bit-accurate behavioural model of the DCIM macro.

The golden reference the gate-level netlists are verified against.  Two
evaluation paths are provided and must agree (the test suite checks):

* :meth:`DCIMMacroModel.mac_ideal` — the mathematical dot product
  ``y_g = sum_h x_h * W_{h,g}``;
* :meth:`DCIMMacroModel.mac_cycles` — the cycle-accurate datapath walk:
  MSB-first serial input bits, per-column popcount through the adder
  tree, shift-and-add accumulation with sign-cycle subtraction, then
  stage-by-stage output fusion with a final-stage subtract for the
  weight sign — mirroring the generated netlist register for register.

FP operands go through the behavioural alignment twin
(:func:`repro.sim.formats.align_group`) exactly as the RTL does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..arch import MacroArchitecture
from ..errors import SimulationError
from ..spec import DataFormat, MacroSpec
from .formats import (
    align_group,
    encode_int,
    group_scale,
    int_range,
    quantize_to_fp,
    wrap_to_width,
)


@dataclass
class MacCycleTrace:
    """Intermediate values of one cycle-accurate MAC (for debugging and
    for cross-checking the gate-level simulator)."""

    tree_counts: List[List[int]] = field(default_factory=list)  # [cycle][col]
    accumulators: List[List[int]] = field(default_factory=list)
    fused: List[int] = field(default_factory=list)


class DCIMMacroModel:
    """Behavioural macro with MCR weight banks.

    Weights are stored as raw column bits; helpers pack signed integers
    or FP significands the same way the BL-driver write path would.
    """

    def __init__(self, spec: MacroSpec, arch: Optional[MacroArchitecture] = None):
        self.spec = spec
        self.arch = arch or MacroArchitecture()
        self.arch.validate_against(spec)
        # bits[bank][row][col]
        self._bits = np.zeros(
            (spec.mcr, spec.height, spec.width), dtype=np.uint8
        )
        self._weight_scales: Dict[Tuple[int, int], float] = {}

    # -- weight handling ---------------------------------------------------

    @property
    def n_groups(self) -> int:
        return self.spec.width // self.spec.max_weight_bits

    @property
    def group_width(self) -> int:
        return self.spec.max_weight_bits

    def weight_bits(self, bank: int) -> np.ndarray:
        self._check_bank(bank)
        return self._bits[bank].copy()

    def set_weights_int(
        self, bank: int, weights: np.ndarray, fmt: DataFormat
    ) -> None:
        """Pack signed integer weights: ``weights[h][g]`` into group
        columns, sign-extended to the group width."""
        self._check_bank(bank)
        if fmt.is_float:
            raise SimulationError("use set_weights_fp for float formats")
        w = np.asarray(weights, dtype=np.int64)
        if w.shape != (self.spec.height, self.n_groups):
            raise SimulationError(
                f"expected {(self.spec.height, self.n_groups)}, got {w.shape}"
            )
        lo, hi = int_range(fmt.bits)
        if w.min() < lo or w.max() > hi:
            raise SimulationError(f"weights exceed {fmt.name} range")
        gw = self.group_width
        for h in range(self.spec.height):
            for g in range(self.n_groups):
                bits = encode_int(int(w[h, g]), gw)
                for j, bit in enumerate(bits):
                    self._bits[bank, h, g * gw + j] = bit
        for g in range(self.n_groups):
            self._weight_scales[(bank, g)] = 1.0

    def set_weights_fp(
        self, bank: int, weights: Sequence[Sequence[float]], fmt: DataFormat
    ) -> None:
        """Quantize FP weights and store group-aligned significands.

        All weights of one column group share the group's maximum
        exponent (write-time alignment); the per-group scale is kept so
        :meth:`mac_fp` can reconstruct real values.
        """
        self._check_bank(bank)
        if not fmt.is_float:
            raise SimulationError("use set_weights_int for integer formats")
        rows = len(weights)
        if rows != self.spec.height or any(
            len(r) != self.n_groups for r in weights
        ):
            raise SimulationError("weight matrix shape mismatch")
        gw = self.group_width
        for g in range(self.n_groups):
            fields = [
                quantize_to_fp(float(weights[h][g]), fmt)
                for h in range(self.spec.height)
            ]
            aligned, emax = align_group(fields)
            for h, val in enumerate(aligned):
                bits = encode_int(wrap_to_width(val, gw), gw)
                for j, bit in enumerate(bits):
                    self._bits[bank, h, g * gw + j] = bit
            self._weight_scales[(bank, g)] = group_scale(fmt, emax)

    def group_weights(self, bank: int) -> np.ndarray:
        """Decode stored bits back to signed integers ``[h][g]``."""
        self._check_bank(bank)
        gw = self.group_width
        out = np.zeros((self.spec.height, self.n_groups), dtype=np.int64)
        for g in range(self.n_groups):
            weightv = 0
            for j in range(gw):
                col = self._bits[bank, :, g * gw + j].astype(np.int64)
                if j == gw - 1:
                    out[:, g] -= col << j
                else:
                    out[:, g] += col << j
            del weightv
        return out

    def _check_bank(self, bank: int) -> None:
        if not 0 <= bank < self.spec.mcr:
            raise SimulationError(
                f"bank {bank} out of range (mcr={self.spec.mcr})"
            )

    # -- MAC evaluation -----------------------------------------------------

    def mac_ideal(self, x: Sequence[int], bank: int = 0) -> List[int]:
        """Exact integer dot product per group."""
        xs = np.asarray(list(x), dtype=np.int64)
        if xs.shape != (self.spec.height,):
            raise SimulationError(f"expected {self.spec.height} inputs")
        w = self.group_weights(bank)
        return [int(v) for v in xs @ w]

    def mac_cycles(
        self,
        x: Sequence[int],
        bank: int = 0,
        trace: Optional[MacCycleTrace] = None,
    ) -> List[int]:
        """Cycle-accurate serial MAC; must equal :meth:`mac_ideal`."""
        self._check_bank(bank)
        k = self.spec.input_width
        lo, hi = int_range(k)
        xs = list(x)
        if len(xs) != self.spec.height:
            raise SimulationError(f"expected {self.spec.height} inputs")
        for v in xs:
            if not lo <= v <= hi:
                raise SimulationError(f"input {v} exceeds INT{k}")
        bit_rows = [encode_int(v, k) for v in xs]
        acc_w = self.spec.accumulator_width
        accs = [0] * self.spec.width
        bits = self._bits[bank]
        for t in range(k):
            serial_idx = k - 1 - t  # MSB first
            neg = t == 0
            clear = t == 0
            xbit = np.array(
                [row[serial_idx] for row in bit_rows], dtype=np.int64
            )
            counts = (xbit[:, None] * bits).sum(axis=0)
            if trace is not None:
                trace.tree_counts.append([int(c) for c in counts])
            for c in range(self.spec.width):
                base = 0 if clear else accs[c] << 1
                delta = -int(counts[c]) if neg else int(counts[c])
                accs[c] = wrap_to_width(base + delta, acc_w)
            if trace is not None:
                trace.accumulators.append(list(accs))
        fused = self._fuse(accs)
        if trace is not None:
            trace.fused = list(fused)
        return fused

    def _fuse(self, accs: Sequence[int]) -> List[int]:
        """OFU behavioural twin: pairwise stages; each stage's ``sub``
        control reaches only the top pair, and only stage 1 subtracts —
        the MSB column is consumed as a ``hi`` operand exactly there."""
        gw = self.group_width
        stages = gw.bit_length() - 1
        subs = self.sub_controls()
        results: List[int] = []
        for g in range(self.n_groups):
            words = [accs[g * gw + j] for j in range(gw)]
            for s in range(1, stages + 1):
                shift = 1 << (s - 1)
                nxt = []
                for i in range(0, len(words), 2):
                    lo_w, hi_w = words[i], words[i + 1]
                    sub = bool(subs[s - 1]) and i == len(words) - 2
                    hi_term = -hi_w if sub else hi_w
                    nxt.append(lo_w + (hi_term << shift))
                words = nxt
            results.append(words[0])
        return results

    # -- FP convenience -----------------------------------------------------

    def mac_fp(self, x: Sequence[float], fmt_in: DataFormat) -> List[float]:
        """Quantize FP inputs, align, run the integer MAC on bank 0,
        rescale.

        Weights must have been loaded with :meth:`set_weights_fp` (their
        group scales are applied), or with :meth:`set_weights_int`
        (scale 1).
        """
        fields = [quantize_to_fp(float(v), fmt_in) for v in x]
        aligned, emax = align_group(fields)
        scale_in = group_scale(fmt_in, emax)
        ints = self.mac_ideal(aligned)
        out: List[float] = []
        for g, v in enumerate(ints):
            w_scale = self._weight_scales.get((0, g), 1.0)
            out.append(v * scale_in * w_scale)
        return out

    def write_row(self, bank: int, row: int, bits: Sequence[int]) -> None:
        """Weight-update write of one physical row (BL-driver path)."""
        self._check_bank(bank)
        if not 0 <= row < self.spec.height:
            raise SimulationError(f"row {row} out of range")
        if len(bits) != self.spec.width:
            raise SimulationError("row write must cover all columns")
        for c, bit in enumerate(bits):
            if bit not in (0, 1):
                raise SimulationError("weight bits must be 0/1")
            self._bits[bank, row, c] = bit

    def mac_with_updates(
        self,
        x: Sequence[int],
        bank: int,
        updates: Mapping[int, Tuple[int, int, Sequence[int]]],
    ) -> List[int]:
        """Cycle-accurate MAC with *simultaneous weight updates*.

        ``updates`` maps serial-cycle index -> ``(bank, row, bits)``
        writes performed during that cycle.  This is the MCR use case
        the paper motivates: MAC runs from the active bank while the BL
        drivers refill another.  Writes to the *active* bank take effect
        from their cycle onward (mid-word corruption, faithfully
        modelled); writes to other banks never disturb the result.
        """
        self._check_bank(bank)
        k = self.spec.input_width
        xs = list(x)
        bit_rows = [encode_int(int(v), k) for v in xs]
        acc_w = self.spec.accumulator_width
        accs = [0] * self.spec.width
        for t in range(k):
            if t in updates:
                w_bank, w_row, w_bits = updates[t]
                self.write_row(w_bank, w_row, w_bits)
            serial_idx = k - 1 - t
            neg = t == 0
            clear = t == 0
            xbit = np.array(
                [row[serial_idx] for row in bit_rows], dtype=np.int64
            )
            counts = (xbit[:, None] * self._bits[bank]).sum(axis=0)
            for c in range(self.spec.width):
                base = 0 if clear else accs[c] << 1
                delta = -int(counts[c]) if neg else int(counts[c])
                accs[c] = wrap_to_width(base + delta, acc_w)
        return self._fuse(accs)

    def sub_controls(self) -> List[int]:
        """OFU ``sub`` pattern for full-width two's-complement weights:
        the MSB column meets its partner in stage 1's top pair, so only
        stage 1 subtracts."""
        stages = self.group_width.bit_length() - 1
        return [1 if s == 1 else 0 for s in range(1, stages + 1)]
