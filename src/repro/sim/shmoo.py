"""Voltage/frequency shmoo engine (paper Fig. 9 substitute).

Silicon shmoo testing sweeps supply voltage and clock frequency and
records functional pass/fail.  The boundary is set by the critical path:
the chip passes at (V, f) when the nominal-voltage critical path, scaled
by the alpha-power delay law and derated for on-die variation, fits in
the clock period.  This module reproduces exactly that — including a
deterministic per-die random timing margin so the plot shows the ragged
edge real shmoos have — and the measured-style energy model used for
Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..tech.process import Process

#: Default 3-sigma on-die variation of the critical path (fraction).
DEFAULT_SIGMA = 0.03


@dataclass(frozen=True)
class ShmooResult:
    """Pass/fail grid over (voltage, frequency)."""

    voltages: Tuple[float, ...]
    frequencies_mhz: Tuple[float, ...]
    passed: Tuple[Tuple[bool, ...], ...]  # [voltage][frequency]
    critical_path_ns_nominal: float

    def max_frequency_mhz(self, vdd: float) -> float:
        """Highest passing frequency at the grid voltage nearest ``vdd``."""
        idx = min(
            range(len(self.voltages)), key=lambda i: abs(self.voltages[i] - vdd)
        )
        best = 0.0
        for j, freq in enumerate(self.frequencies_mhz):
            if self.passed[idx][j]:
                best = max(best, freq)
        return best

    def render(self) -> str:
        """ASCII shmoo in the paper's orientation: voltage rows
        (descending), frequency columns (ascending); ``P`` pass, ``.``
        fail."""
        lines = ["V\\f(MHz) " + " ".join(f"{f:5.0f}" for f in self.frequencies_mhz)]
        order = sorted(
            range(len(self.voltages)),
            key=lambda i: self.voltages[i],
            reverse=True,
        )
        for i in order:
            row = "  ".join(
                "  P " if self.passed[i][j] else "  . "
                for j in range(len(self.frequencies_mhz))
            )
            lines.append(f"{self.voltages[i]:.2f} V   {row}")
        return "\n".join(lines)


def run_shmoo(
    critical_path_ns: float,
    process: Process,
    voltages: Sequence[float],
    frequencies_mhz: Sequence[float],
    sigma: float = DEFAULT_SIGMA,
) -> ShmooResult:
    """Sweep the grid.

    ``critical_path_ns`` is the post-layout critical path at the
    process's nominal voltage.  Each (V, f) cell passes when
    ``period >= path * delay_scale(V) * (1 + margin)`` with a
    deterministic Gaussian margin per cell (die-position dependent
    variation, drawn from a generator seeded with 2025).
    """
    if critical_path_ns <= 0:
        raise SimulationError("critical path must be positive")
    rng = np.random.default_rng(2025)
    margins = rng.normal(0.0, sigma, size=(len(voltages), len(frequencies_mhz)))
    grid: List[Tuple[bool, ...]] = []
    for i, vdd in enumerate(voltages):
        scale = process.delay_scale(vdd)
        row: List[bool] = []
        for j, freq in enumerate(frequencies_mhz):
            period = 1e3 / freq
            path = critical_path_ns * scale * (1.0 + abs(margins[i, j]))
            row.append(period >= path)
        grid.append(tuple(row))
    return ShmooResult(
        voltages=tuple(float(v) for v in voltages),
        frequencies_mhz=tuple(float(f) for f in frequencies_mhz),
        passed=tuple(grid),
        critical_path_ns_nominal=critical_path_ns,
    )


@dataclass(frozen=True)
class MeasuredEfficiency:
    """Measurement-style efficiency numbers (Table II conditions)."""

    vdd: float
    frequency_mhz: float
    power_mw: float
    tops: float
    tops_per_watt: float
    tops_per_mm2: float
    tops_per_watt_1b: float
    tops_per_mm2_1b: float


def measure_efficiency(
    energy_per_mac_cycle_pj: float,
    leakage_mw: float,
    critical_path_ns: float,
    area_um2: float,
    process: Process,
    vdd: float,
    height: int,
    width: int,
    input_bits: int,
    weight_bits: int,
    input_sparsity: float = 0.0,
    weight_sparsity: float = 0.0,
    utilization: float = 1.0,
) -> MeasuredEfficiency:
    """Table II-style measurement at an operating point.

    * ops are counted the customary DCIM way: ``2 * H * W_words`` ops per
      serial phase, so one full MAC of ``input_bits`` phases performs
      ``2 * H * (W/wb)`` MACs;
    * sparsity gates switching energy: zero input bits do not toggle the
      word lines and zero weights kill product-term activity — the
      standard measurement trick behind headline TOPS/W numbers;
    * 1b-1b scaling multiplies throughput by ``input_bits * weight_bits``
      (the normalization used in the paper's comparison table).
    """
    if not 0 <= input_sparsity < 1 or not 0 <= weight_sparsity < 1:
        raise SimulationError("sparsity must be in [0, 1)")
    f_max_mhz = process.max_frequency_mhz(critical_path_ns, vdd)
    frequency = f_max_mhz * utilization
    e_scale = process.energy_scale(vdd)
    activity_factor = (1.0 - input_sparsity) * (1.0 - weight_sparsity)
    energy_pj = energy_per_mac_cycle_pj * e_scale * max(activity_factor, 0.02)
    dynamic_mw = energy_pj * frequency * 1e-3
    leak_mw = leakage_mw * process.leakage_scale(vdd)
    power_mw = dynamic_mw + leak_mw

    words = max(1, width // weight_bits)
    macs_per_cycle = height * words / input_bits  # amortized over phases
    ops_per_cycle = 2.0 * macs_per_cycle
    tops = ops_per_cycle * frequency * 1e-6
    tops_w = tops / (power_mw * 1e-3) if power_mw > 0 else float("inf")
    tops_mm2 = tops / (area_um2 * 1e-6)
    scale_1b = float(input_bits * weight_bits)
    return MeasuredEfficiency(
        vdd=vdd,
        frequency_mhz=frequency,
        power_mw=power_mw,
        tops=tops,
        tops_per_watt=tops_w,
        tops_per_mm2=tops_mm2,
        tops_per_watt_1b=tops_w * scale_1b,
        tops_per_mm2_1b=tops_mm2 * scale_1b,
    )
