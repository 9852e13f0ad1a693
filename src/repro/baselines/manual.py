"""Published state-of-the-art DCIM macros (paper Table II comparands).

Table II compares the SynDCIM test chip against manually designed
macros from ISSCC.  Those numbers are published measurements, not
something we can re-simulate, so this module encodes them together with
the normalization the paper applies (scaling energy and area efficiency
to 1b-1b precision) — the same treatment the survey tables in the DCIM
literature use.

The entries follow the papers cited in Table II / the references:
[1] ISSCC'21 22nm, [2] ISSCC'22 5nm, [3] ISSCC'23 4nm, [14] TCAS-I'24
28nm reconfigurable, plus AutoDCIM's DAC'23 28nm compiled macro.
Numbers are the headline figures of those publications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class PublishedMacro:
    """One published DCIM design with its headline numbers."""

    name: str
    venue: str
    node_nm: int
    array: str
    supply_v: float
    precision: str
    input_bits: int
    weight_bits: int
    tops_per_watt: float          # at the stated precision & conditions
    tops_per_mm2: float
    fmax_mhz: float
    handcrafted: bool = True
    sparsity_boosted: bool = False

    @property
    def tops_per_watt_1b(self) -> float:
        """Scale to 1b-1b the way the paper's comparison row does."""
        return self.tops_per_watt * self.input_bits * self.weight_bits

    @property
    def tops_per_mm2_1b(self) -> float:
        return self.tops_per_mm2 * self.input_bits * self.weight_bits


#: Table II comparands (published measurements).
SOTA_MACROS: Tuple[PublishedMacro, ...] = (
    PublishedMacro(
        name="TSMC ISSCC'21",
        venue="ISSCC 2021 [1]",
        node_nm=22,
        array="64x64x4",
        supply_v=0.72,
        precision="INT4",
        input_bits=4,
        weight_bits=4,
        tops_per_watt=89.0,
        tops_per_mm2=16.3,
        fmax_mhz=1000.0,
    ),
    PublishedMacro(
        name="TSMC ISSCC'22",
        venue="ISSCC 2022 [2]",
        node_nm=5,
        array="256x4x64",
        supply_v=0.9,
        precision="INT4",
        input_bits=4,
        weight_bits=4,
        tops_per_watt=254.0,
        tops_per_mm2=221.0,
        fmax_mhz=1200.0,
    ),
    PublishedMacro(
        name="TSMC ISSCC'23",
        venue="ISSCC 2023 [3]",
        node_nm=4,
        array="64x64",
        supply_v=0.65,
        precision="INT1 (per-bit)",
        input_bits=1,
        weight_bits=1,
        tops_per_watt=6163.0,
        tops_per_mm2=4790.0,
        fmax_mhz=1400.0,
        sparsity_boosted=True,
    ),
    PublishedMacro(
        name="TCAS-I'24 reconfig",
        venue="TCAS-I 2024 [14]",
        node_nm=28,
        array="64x64",
        supply_v=0.9,
        precision="INT8",
        input_bits=8,
        weight_bits=8,
        tops_per_watt=21.0,
        tops_per_mm2=8.4,
        fmax_mhz=500.0,
    ),
    PublishedMacro(
        name="AutoDCIM DAC'23",
        venue="DAC 2023 [5]",
        node_nm=28,
        array="64x64",
        supply_v=0.9,
        precision="INT8",
        input_bits=8,
        weight_bits=8,
        tops_per_watt=12.5,
        tops_per_mm2=5.1,
        fmax_mhz=333.0,
        handcrafted=False,
    ),
)
