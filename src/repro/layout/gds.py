"""Layout-database export (GDS-like JSON stream).

Real GDSII is a binary stream of structures and boundary records; this
writer emits the same information as line-oriented JSON records — one
header, one structure per cell master, one placement record per
instance — which is trivially diffable and round-trippable in tests,
and can be converted to true GDSII offline by any polygon tool.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str
from typing import Dict, Iterator, List, Tuple

from ..errors import LayoutError
from ..rtl.ir import Module
from .geometry import rect_arrays
from .sdp import Placement

FORMAT_VERSION = 1
#: Layer conventions (arbitrary but stable): cell outline, SRAM, label.
LAYER_OUTLINE = 0
LAYER_STDCELL = 10
LAYER_SRAM = 20


def write_gds_json(
    module: Module,
    placement: Placement,
    library,
    design_name: str = "",
) -> str:
    """Serialize the placed design; one JSON record per line.

    SREF records are formatted directly (the bytes ``json.dumps`` gives
    each record) from the placement's coordinate arrays, with each cell
    master's name and layer resolved once."""
    records: List[str] = []
    records.append(
        json.dumps(
            {
                "record": "HEADER",
                "version": FORMAT_VERSION,
                "design": design_name or module.name,
                "units_um": 1.0,
                "outline": [
                    placement.outline.x0,
                    placement.outline.y0,
                    placement.outline.x1,
                    placement.outline.y1,
                ],
            }
        )
    )
    ref_of = {inst.name: inst.ref for inst in module.instances}
    names, coords = rect_arrays(placement.cells)
    masters: Dict[str, str] = {}
    for name, (x0, y0, x1, y1) in zip(names, coords.tolist()):
        ref = ref_of.get(name)
        if ref is None:
            raise LayoutError(f"placed instance {name} missing from netlist")
        master = masters.get(ref)
        if master is None:
            cell = library.cell(ref)
            layer = LAYER_SRAM if cell.is_memory else LAYER_STDCELL
            master = masters[ref] = f'"cell": {_json_str(ref)}, "layer": {layer}'
        records.append(
            f'{{"record": "SREF", "name": {_json_str(name)}, {master}, '
            f'"xy": [{x0!r}, {y0!r}, {x1!r}, {y1!r}]}}'
        )
    records.append(json.dumps({"record": "ENDLIB", "cells": len(placement.cells)}))
    return "\n".join(records) + "\n"


def read_gds_json(text: str) -> Dict[str, object]:
    """Parse the stream back: header dict plus instance records."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise LayoutError("empty GDS stream")
    header = json.loads(lines[0])
    if header.get("record") != "HEADER":
        raise LayoutError("missing GDS header record")
    instances = {}
    end_seen = False
    for line in lines[1:]:
        rec = json.loads(line)
        kind = rec.get("record")
        if kind == "SREF":
            instances[rec["name"]] = rec
        elif kind == "ENDLIB":
            end_seen = True
    if not end_seen:
        raise LayoutError("GDS stream not terminated with ENDLIB")
    return {"header": header, "instances": instances}
