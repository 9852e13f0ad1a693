"""Multi-corner timing/power evaluation of one implemented netlist.

:func:`multi_corner_signoff` is the signoff engine: it takes the flat
post-layout netlist once and re-judges it at every corner of a
:class:`~repro.signoff.corners.CornerSet`.  The expensive, structure-
only work (the compiled :class:`~repro.rtl.netview.NetView` and the STA
edge arrays) is shared across corners through the per-view caches —
each additional corner costs one derated arrival propagation plus a
handful of scalar multiplies:

* **timing** — :func:`repro.sta.analysis.analyze` with the corner's
  composed :meth:`~repro.signoff.corners.Corner.timing_derate`; the
  corner's minimum period falls out of the same report
  (``period - WNS``);
* **power** — the nominal activity-based analysis is corner-independent
  (switching statistics do not move with PVT), so the nominal
  :class:`~repro.power.estimator.PowerReport` is rescaled analytically:
  dynamic terms by CV^2 at the corner supply, leakage by the composed
  process x DIBL x temperature factor.  This reproduces what
  re-running :func:`~repro.power.estimator.estimate_power` at the
  corner voltage computes, without touching the netlist again.

The report's ``clean`` verdict is taken **at the worst corner** (the
one with the largest minimum period): a design signs off only when the
slowest legal operating point still meets the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import TimingError
from ..power.estimator import PowerReport, estimate_power
from ..rtl.ir import Module
from ..sta.analysis import TimingReport, analyze
from ..tech.process import Process
from ..tech.stdcells import StdCellLibrary
from .corners import Corner, CornerSet


@dataclass(frozen=True)
class CornerResult:
    """Timing and power of one design at one operating corner."""

    corner: Corner
    timing: TimingReport
    power: PowerReport
    timing_derate: float

    @property
    def min_period_ns(self) -> float:
        """Smallest met period at this corner (period - WNS)."""
        return self.timing.clock_period_ns - self.timing.wns_ns

    @property
    def fmax_mhz(self) -> float:
        if self.min_period_ns <= 0.0:
            raise TimingError("corner has no maximum frequency")
        return 1e3 / self.min_period_ns

    @property
    def slack_ns(self) -> float:
        return self.timing.wns_ns

    @property
    def met(self) -> bool:
        return self.timing.met

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly projection (batch records, CLI reports)."""
        return {
            "corner": self.corner.name,
            "process_corner": self.corner.process_corner,
            "vdd": self.power.vdd,
            "temp_c": self.corner.temp_c,
            "timing_derate": round(self.timing_derate, 6),
            "min_period_ns": self.min_period_ns,
            "fmax_mhz": self.fmax_mhz,
            "slack_ns": self.slack_ns,
            "timing_met": self.met,
            "power_mw": self.power.total_mw,
            "leakage_mw": self.power.leakage_mw,
            "endpoint": self.timing.endpoint,
        }


@dataclass(frozen=True)
class SignoffReport:
    """Per-corner results for one design, ordered as the corner set."""

    corner_set: str
    clock_period_ns: float
    results: Tuple[CornerResult, ...]

    def __post_init__(self) -> None:
        if not self.results:
            raise TimingError("signoff needs at least one corner result")

    @property
    def worst(self) -> CornerResult:
        """The setup-critical corner: largest minimum period."""
        return max(self.results, key=lambda r: r.min_period_ns)

    @property
    def clean(self) -> bool:
        """Timing met at the worst corner (hence at every corner)."""
        return self.worst.met

    def corner(self, name: str) -> CornerResult:
        for result in self.results:
            if result.corner.name == name:
                return result
        raise TimingError(
            f"no corner {name!r} in signoff report; "
            f"have {[r.corner.name for r in self.results]}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "corner_set": self.corner_set,
            "clock_period_ns": self.clock_period_ns,
            "worst_corner": self.worst.corner.name,
            "clean": self.clean,
            "corners": {r.corner.name: r.to_dict() for r in self.results},
        }

    def describe(self) -> str:
        worst = self.worst.corner.name
        lines = [
            f"multi-corner signoff ({self.corner_set}) @ "
            f"{self.clock_period_ns:.4f} ns: "
            f"{'CLEAN' if self.clean else 'VIOLATED'} "
            f"(worst corner {worst})"
        ]
        for r in self.results:
            tag = " <- worst" if r.corner.name == worst else ""
            lines.append(
                f"  {r.corner.name:3s} {r.power.vdd:.3f} V "
                f"{r.corner.temp_c:+4.0f} C  "
                f"fmax {r.fmax_mhz:7.1f} MHz  "
                f"slack {r.slack_ns:+.4f} ns  "
                f"power {r.power.total_mw:8.2f} mW "
                f"({'MET' if r.met else 'VIOLATED'}){tag}"
            )
        return "\n".join(lines)


def corner_power(
    nominal: PowerReport, corner: Corner, process: Process
) -> PowerReport:
    """Rescale a nominal-point power analysis to one corner.

    Exact relative to re-running :func:`estimate_power` at the corner
    supply: dynamic terms carry the CV^2 factor, leakage the composed
    sigma x DIBL x temperature factor (the nominal report's leakage is
    at scale 1.0 by construction).
    """
    e_scale = corner.energy_scale(process)
    return replace(
        nominal,
        vdd=corner.vdd(process),
        switching_mw=nominal.switching_mw * e_scale,
        internal_mw=nominal.internal_mw * e_scale,
        memory_mw=nominal.memory_mw * e_scale,
        leakage_mw=nominal.leakage_mw * corner.leakage_scale(process),
    )


def multi_corner_signoff(
    module: Module,
    library: StdCellLibrary,
    process: Process,
    corners: CornerSet,
    clock_period_ns: float,
    wire_load: Optional[np.ndarray] = None,
    nominal_power: Optional[PowerReport] = None,
    nominal_timing: Optional[TimingReport] = None,
) -> SignoffReport:
    """Evaluate one flat netlist at every corner of ``corners``.

    ``nominal_power`` (an analysis at the process's nominal voltage,
    as the implementation flow already produces) is rescaled per
    corner; when omitted it is computed once here, at the clock
    frequency.  ``nominal_timing`` (the flow's derate-1.0 report at
    the same period and wire loads) is reused verbatim for corners
    whose composed derate is the nominal point, saving their arrival
    propagation — with the ``typical`` preset the whole signoff then
    costs nothing extra.
    ``wire_load`` should be the same post-layout wire-cap array the
    nominal signoff used (the routing estimate's ``net_caps_ff``), so
    corner timing differs from nominal only by the derate.
    """
    if nominal_power is None:
        nominal_power = estimate_power(
            module, library, process, 1e3 / clock_period_ns, wire_load=wire_load
        )
    results = []
    for corner in corners:
        derate = corner.timing_derate(process)
        if (
            nominal_timing is not None
            and abs(derate - 1.0) <= 1e-9
            and nominal_timing.clock_period_ns == clock_period_ns
        ):
            timing = nominal_timing
        else:
            timing = analyze(
                module, library, clock_period_ns, wire_load, derate=derate
            )
        results.append(
            CornerResult(
                corner=corner,
                timing=timing,
                power=corner_power(nominal_power, corner, process),
                timing_derate=derate,
            )
        )
    return SignoffReport(
        corner_set=corners.name,
        clock_period_ns=clock_period_ns,
        results=tuple(results),
    )
