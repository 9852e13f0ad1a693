"""Operating-corner model for multi-corner PVT signoff.

A signoff :class:`Corner` composes the three derating axes a production
flow checks independently:

* the **process** sigma (:data:`repro.tech.process.CORNERS` — SS/TT/FF
  global transistor corners at the characterized V/T);
* the **supply voltage**, expressed as a scale of the node's nominal
  supply so the same corner definition works on any registered process
  (the alpha-power law translates it into a delay multiplier);
* the **junction temperature**, through the process's linear delay and
  exponential leakage temperature models.

The composed :meth:`Corner.timing_derate` is exactly the ``derate``
argument :mod:`repro.sta.analysis` has always accepted — this module is
the layer that finally names the operating points and feeds them to the
flow.  :class:`CornerSet` bundles corners under a name; the presets are

``typical``
    TT at nominal supply and temperature — one corner, identical to the
    historical single-point evaluation.
``signoff3``
    the production triple: SS at worst-case V/T (2 % supply droop,
    125 C) for setup signoff, TT nominal, and FF at maximum-power V/T
    (+5 % supply, 125 C) for the power envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..errors import SpecificationError
from ..tech.process import CORNERS, Process
from ..tech.process import Corner as ProcessCorner


@dataclass(frozen=True)
class Corner:
    """One PVT operating point: process sigma x supply x temperature.

    ``vdd_scale`` is relative to ``process.vdd_nominal`` and is clamped
    into the process's supported window at resolution time, so a corner
    definition is process-agnostic.
    """

    name: str
    process_corner: str = "TT"
    vdd_scale: float = 1.0
    temp_c: float = 25.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("corner name must be non-empty")
        if self.process_corner not in CORNERS:
            raise SpecificationError(
                f"unknown process corner {self.process_corner!r}; "
                f"registered: {sorted(CORNERS)}"
            )
        if self.vdd_scale <= 0.0:
            raise SpecificationError(
                f"corner {self.name}: vdd_scale must be positive"
            )

    @property
    def sigma(self) -> ProcessCorner:
        return CORNERS[self.process_corner]

    def vdd(self, process: Process) -> float:
        """Resolved supply voltage, clamped into the process window."""
        return min(
            max(self.vdd_scale * process.vdd_nominal, process.vdd_min),
            process.vdd_max,
        )

    def timing_derate(self, process: Process) -> float:
        """Composed gate-delay multiplier versus the characterized
        (TT, nominal V, nominal T) point — the STA ``derate``."""
        return (
            self.sigma.delay_factor
            * process.delay_scale(self.vdd(process))
            * process.temperature_delay_scale(self.temp_c)
        )

    def energy_scale(self, process: Process) -> float:
        """Switching-energy multiplier (CV^2 at the corner supply)."""
        return process.energy_scale(self.vdd(process))

    def leakage_scale(self, process: Process) -> float:
        """Static-power multiplier: process sigma x DIBL x temperature."""
        return (
            self.sigma.leakage_factor
            * process.leakage_scale(self.vdd(process))
            * process.temperature_leakage_scale(self.temp_c)
        )

    def key(self) -> Tuple[str, str, float, float]:
        """Canonical identity tuple — what cache fingerprints carry."""
        return (self.name, self.process_corner, self.vdd_scale, self.temp_c)

    def describe(self, process: Process) -> str:
        return (
            f"{self.name}: {self.process_corner} @ "
            f"{self.vdd(process):.3f} V, {self.temp_c:+.0f} C "
            f"(delay x{self.timing_derate(process):.3f}, "
            f"leak x{self.leakage_scale(process):.2f})"
        )


#: The three named signoff corners the CLI resolves ``--corners`` names
#: against.  SS carries the setup-critical V/T (droop + hot), FF the
#: power-envelope V/T (overdrive + hot); TT is the characterization
#: point.
SS_SIGNOFF = Corner("SS", "SS", vdd_scale=0.98, temp_c=125.0)
TT_SIGNOFF = Corner("TT", "TT", vdd_scale=1.00, temp_c=25.0)
FF_SIGNOFF = Corner("FF", "FF", vdd_scale=1.05, temp_c=125.0)

SIGNOFF_CORNERS: Dict[str, Corner] = {
    c.name: c for c in (SS_SIGNOFF, TT_SIGNOFF, FF_SIGNOFF)
}


@dataclass(frozen=True)
class CornerSet:
    """A named, ordered, duplicate-free collection of corners."""

    name: str
    corners: Tuple[Corner, ...]

    def __post_init__(self) -> None:
        if not self.corners:
            raise SpecificationError(
                f"corner set {self.name!r} must contain at least one corner"
            )
        names = [c.name for c in self.corners]
        if len(set(names)) != len(names):
            raise SpecificationError(
                f"corner set {self.name!r} has duplicate corners: {names}"
            )

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.corners)

    def __iter__(self):
        return iter(self.corners)

    def __len__(self) -> int:
        return len(self.corners)

    def worst_timing(self, process: Process) -> Corner:
        """The setup-signoff corner: maximal composed delay derate."""
        return max(self.corners, key=lambda c: c.timing_derate(process))

    def describe(self, process: Process) -> str:
        lines = [f"corner set {self.name} ({len(self)} corners):"]
        lines += [f"  {c.describe(process)}" for c in self.corners]
        return "\n".join(lines)

    @classmethod
    def from_names(
        cls, names: Iterable[str], name: str = "custom"
    ) -> "CornerSet":
        corners = []
        for n in names:
            n = n.strip()
            if not n:
                continue
            try:
                corners.append(SIGNOFF_CORNERS[n.upper()])
            except KeyError:
                raise SpecificationError(
                    f"unknown signoff corner {n!r}; "
                    f"known: {sorted(SIGNOFF_CORNERS)} "
                    f"(or a preset: {sorted(CORNER_SET_PRESETS)})"
                ) from None
        return cls(name=name, corners=tuple(corners))


TYPICAL = CornerSet("typical", (TT_SIGNOFF,))
SIGNOFF3 = CornerSet("signoff3", (SS_SIGNOFF, TT_SIGNOFF, FF_SIGNOFF))

CORNER_SET_PRESETS: Dict[str, CornerSet] = {
    "typical": TYPICAL,
    "signoff3": SIGNOFF3,
}


def worst_corner_scl(process: Process, corners: CornerSet, library=None):
    """The corner-characterized default SCL for the set's worst timing
    corner, or ``None`` when the worst corner is the nominal point
    itself (TT pricing already covers it).

    The single resolution point shared by the compiler (searcher
    pricing) and the job executor (worker prewarm), so both always
    agree on which artifact a corner set needs.  ``library`` swaps in
    an alternate cell-library backend (see ``default_scl``).
    """
    from ..scl.library import default_scl

    worst = corners.worst_timing(process)
    if worst.timing_derate(process) <= 1.0 + 1e-9:
        return None
    return default_scl(process, corner=worst, library=library)


def parse_corners(text: str) -> CornerSet:
    """Resolve a ``--corners`` argument: a preset name (``typical``,
    ``signoff3``) or a comma-separated corner list (``SS,TT,FF``).
    Raises :class:`SpecificationError` for unknown names and for lists
    that resolve to zero corners (e.g. an empty string)."""
    stripped = text.strip()
    preset = CORNER_SET_PRESETS.get(stripped.lower())
    if preset is not None:
        return preset
    return CornerSet.from_names(stripped.split(","), name=stripped or "empty")
