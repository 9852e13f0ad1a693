"""Process/technology model for a 40 nm-class CMOS node.

The paper implements SynDCIM on a commercial 40 nm PDK.  This module is
the offline substitute: an analytical process description providing

* supply/threshold voltages and the alpha-power-law delay model used to
  translate timing between operating voltages (drives the Fig. 9 shmoo);
* wire parasitics per unit length (loads routing estimates);
* global derating corners (SS/TT/FF) for signoff-style analysis.

The absolute values are calibrated so that the generated 64x64 macro
lands near the paper's silicon results (~1.1 GHz at 1.2 V, ~300 MHz at
0.7 V, 0.112 mm^2); all *relative* behaviour (what the searcher actually
exploits) follows from the model structure rather than the calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import SpecificationError


@dataclass(frozen=True)
class Corner:
    """A *pure process* corner: the global sigma of the transistors,
    as a pair of multiplicative deratings at the characterized V/T.

    Supply droop and temperature are separate axes — they compose with
    the process sigma through :class:`repro.signoff.Corner`, which is
    what the multi-corner signoff flow actually evaluates.  (Earlier
    revisions bundled worst-case V/T into ``delay_factor``; the signoff
    subsystem decomposes the derate so each axis is visible.)
    """

    name: str
    delay_factor: float
    leakage_factor: float


TT = Corner("TT", 1.00, 1.0)
SS = Corner("SS", 1.08, 0.55)
FF = Corner("FF", 0.93, 2.1)

CORNERS = {c.name: c for c in (TT, SS, FF)}


@dataclass(frozen=True)
class Process:
    """Technology node parameters.

    Attributes
    ----------
    name:
        Node label, cosmetic.
    vdd_nominal:
        Voltage at which the standard-cell library is characterized; all
        LUT numbers refer to this voltage.
    vdd_min / vdd_max:
        Supported operating window (the shmoo sweeps inside it).
    vth:
        Effective threshold voltage for the alpha-power delay law.
    alpha:
        Velocity-saturation exponent of the alpha-power law.
    wire_cap_ff_per_um / wire_res_kohm_per_um:
        Average routing parasitics for mid-layer metal.
    track_pitch_um:
        Routing pitch, used by the congestion model.
    row_height_um:
        Standard-cell row height for placement.
    temp_nominal_c:
        Temperature the library is characterized at.
    temp_delay_per_c:
        Linear gate-delay sensitivity to junction temperature (mobility
        degradation; per degree C away from ``temp_nominal_c``).
    temp_leak_exp_c:
        e-folding temperature of sub-threshold leakage (degrees C per
        ``e``-factor of leakage growth).
    """

    name: str = "generic40"
    vdd_nominal: float = 0.9
    vdd_min: float = 0.6
    vdd_max: float = 1.25
    vth: float = 0.52
    alpha: float = 1.4
    wire_cap_ff_per_um: float = 0.20
    wire_res_kohm_per_um: float = 0.002
    track_pitch_um: float = 0.14
    row_height_um: float = 1.8
    temp_nominal_c: float = 25.0
    temp_delay_per_c: float = 0.00025
    temp_leak_exp_c: float = 40.0

    def __post_init__(self) -> None:
        if not self.vdd_min < self.vdd_nominal < self.vdd_max:
            raise SpecificationError("vdd_nominal must lie inside [vdd_min, vdd_max]")
        if self.vth >= self.vdd_min:
            raise SpecificationError(
                f"vth {self.vth} must be below vdd_min {self.vdd_min}"
            )

    # -- voltage scaling ---------------------------------------------------

    def _alpha_power(self, vdd: float) -> float:
        return vdd / (vdd - self.vth) ** self.alpha

    def delay_scale(self, vdd: float) -> float:
        """Gate-delay multiplier at ``vdd`` relative to ``vdd_nominal``.

        Alpha-power law: ``t_d \\propto Vdd / (Vdd - Vth)^alpha``
        (Sakurai-Newton).  Returns 1.0 at the nominal voltage, >1 below
        it, <1 above it.
        """
        if not self.vdd_min - 1e-9 <= vdd <= self.vdd_max + 1e-9:
            raise SpecificationError(
                f"vdd {vdd} outside supported range "
                f"[{self.vdd_min}, {self.vdd_max}] for {self.name}"
            )
        return self._alpha_power(vdd) / self._alpha_power(self.vdd_nominal)

    def energy_scale(self, vdd: float) -> float:
        """Switching-energy multiplier at ``vdd`` (CV^2 scaling)."""
        ratio = vdd / self.vdd_nominal
        return ratio * ratio

    def leakage_scale(self, vdd: float) -> float:
        """Sub-threshold leakage multiplier; roughly exponential in Vdd
        through DIBL.  Calibrated mildly (factor ~3 across the window)."""
        return math.exp(1.8 * (vdd - self.vdd_nominal))

    # -- temperature scaling -------------------------------------------------

    def temperature_delay_scale(self, temp_c: float) -> float:
        """Gate-delay multiplier at junction temperature ``temp_c``
        relative to the characterization temperature (mobility
        degradation: hotter is slower).  1.0 at ``temp_nominal_c``."""
        scale = 1.0 + self.temp_delay_per_c * (temp_c - self.temp_nominal_c)
        if scale <= 0.0:
            raise SpecificationError(
                f"temperature {temp_c} C drives the delay scale "
                f"non-positive for {self.name}"
            )
        return scale

    def temperature_leakage_scale(self, temp_c: float) -> float:
        """Sub-threshold leakage multiplier at ``temp_c`` (exponential
        in temperature).  1.0 at ``temp_nominal_c``."""
        return math.exp((temp_c - self.temp_nominal_c) / self.temp_leak_exp_c)

    def max_frequency_mhz(self, critical_path_ns: float, vdd: float) -> float:
        """Highest clock (MHz) the given nominal-voltage path sustains at
        ``vdd``."""
        if critical_path_ns <= 0:
            raise SpecificationError("critical path must be positive")
        return 1e3 / (critical_path_ns * self.delay_scale(vdd))


GENERIC_40NM = Process()

#: Processes resolvable by name (batch workers receive a name, not an
#: object, so only registered processes can run through the pool).
PROCESSES = {GENERIC_40NM.name: GENERIC_40NM}


def process_by_name(name: str) -> Process:
    """Resolve a registered process; raises for unknown names rather
    than silently substituting a default node."""
    try:
        return PROCESSES[name]
    except KeyError:
        raise SpecificationError(
            f"unknown process {name!r}; registered: {sorted(PROCESSES)}"
        ) from None
