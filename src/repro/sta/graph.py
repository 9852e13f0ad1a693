"""Net loads for timing and power analysis.

Every net of a *flat* module carries the input capacitance of its sink
pins plus a wire load: before layout, :data:`DEFAULT_WLM_FF_PER_SINK`
per sink (the wire-load model); after layout, the routed wire
capacitance, an array over the view's net ids
(:attr:`repro.layout.route.RoutingEstimate.net_caps_ff`).
:func:`net_loads_vector` returns the total per net id of a compiled
:class:`~repro.rtl.netview.NetView`, which STA
(:mod:`repro.sta.analysis`) and power analysis consume.

The explicit pin-level timing graph STA once walked lives on in
``tests/reference/sta.py`` as the scalar reference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import TimingError
from ..rtl.netview import NetView

#: Extra wire capacitance per fanout pin when no placement data exists
#: (pre-layout wire-load model, fF per sink).
DEFAULT_WLM_FF_PER_SINK = 0.35


def net_loads_vector(
    view: NetView, wire_load: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-net total load (fF) as a dense vector over the view's net ids.

    The sink-capacitance and fanout-count accumulations are structural
    and cached on the view; only the wire load is applied per call:
    the default WLM, or ``wire_load``, one wire capacitance per net id."""
    cached = view.derived.get("net_loads")
    if cached is None:
        n = view.n_nets
        sink_cap = np.zeros(n, dtype=np.float64)
        sink_count = np.zeros(n, dtype=np.float64)
        for group in view.groups:
            caps = group.cell.input_caps_ff
            for j, pin in enumerate(caps):
                ids = group.in_ids[:, j]
                ids = ids[ids >= 0]
                if ids.size:
                    np.add.at(sink_cap, ids, caps[pin])
                    np.add.at(sink_count, ids, 1.0)
        cached = view.derived["net_loads"] = (sink_cap, sink_count)
    sink_cap, sink_count = cached
    if wire_load is None:
        return sink_cap + DEFAULT_WLM_FF_PER_SINK * sink_count
    if len(wire_load) != view.n_nets:
        raise TimingError(
            f"wire load has {len(wire_load)} entries but the netlist has "
            f"{view.n_nets} nets"
        )
    return sink_cap + wire_load
