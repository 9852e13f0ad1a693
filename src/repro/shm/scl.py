"""Sealed-SCL tensors over shared memory.

The sealed subcircuit library is ~261 :class:`~repro.scl.lut.PPARecord`
entries — pure numbers.  They flatten into two float64 tensors (one
``(n, 5)`` block of delay/energy/area/leakage/cells, one ragged
stage-delay array with an offsets index) plus a JSON index of
``(kind, variant, dim)`` keys.

Segment naming is content-addressed by the same
:func:`~repro.scl.cache.scl_cache_key` hash the disk cache uses:
``repro-scl-<first 12 hex digits>``.  An attaching worker re-derives
the key from its own library/process fingerprints, so parent and child
agree on the segment name exactly when they agree on the content — a
version-skewed worker simply misses and falls back to the disk
artifact (and from there to a characterization).  Float64 round-trips
bit-exactly through the tensor, so an attached library is
bit-identical to the built one.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tech.process import GENERIC_40NM, Process
from ..tech.stdcells import StdCellLibrary, default_library
from .blob import ShmFormatError, attach_blob, publish_blob
from .tensors import pack_tensors, unpack_tensors

_NUMERIC_FIELDS = 5  # delay_ns, energy_pj, area_um2, leakage_mw, cells


def scl_segment_name(key: str) -> str:
    return f"repro-scl-{key[:12]}"


def scl_to_tensors(scl) -> Tuple[dict, dict]:
    """Flatten a sealed library into (meta, arrays)."""
    from ..scl.library import KINDS

    index = []
    numeric = []
    stages = []
    stage_offsets = [0]
    for kind in KINDS:
        for (variant, dim), rec in scl.table(kind).items():
            index.append([kind, variant, dim])
            numeric.append(
                [
                    rec.delay_ns,
                    rec.energy_pj,
                    rec.area_um2,
                    rec.leakage_mw,
                    float(rec.cells),
                ]
            )
            stages.extend(rec.stage_delays_ns)
            stage_offsets.append(len(stages))
    meta = {
        "kind": "scl",
        "process": scl.process.name,
        "corner": None if scl.corner is None else list(scl.corner.key()),
        "entry_count": scl.entry_count(),
        "index": index,
    }
    arrays = {
        "numeric": np.asarray(numeric, dtype=np.float64).reshape(
            len(index), _NUMERIC_FIELDS
        ),
        "stages": np.asarray(stages, dtype=np.float64),
        "stage_offsets": np.asarray(stage_offsets, dtype=np.int64),
    }
    return meta, arrays


def scl_from_tensors(
    meta: dict,
    arrays: dict,
    library: StdCellLibrary,
    process: Process,
):
    """Rebuild a sealed nominal-corner library from attached tensors.

    The 261 record objects themselves are (tiny) per-process copies;
    what the attach avoids is the disk read, the JSON parse, and above
    all the fallback characterization.  Raises on any mismatch — the
    caller treats every failure as a miss.
    """
    from ..errors import LibraryError
    from ..scl.library import SubcircuitLibrary
    from ..scl.lut import PPARecord

    if meta.get("kind") != "scl":
        raise LibraryError("shm SCL: wrong payload kind")
    if meta.get("process") != process.name:
        raise LibraryError("shm SCL: process mismatch")
    if meta.get("corner") is not None:
        raise LibraryError("shm SCL: corner mismatch")
    numeric = arrays["numeric"]
    stages = arrays["stages"]
    offsets = arrays["stage_offsets"]
    index = meta["index"]
    if numeric.shape != (len(index), _NUMERIC_FIELDS):
        raise LibraryError("shm SCL: numeric tensor shape mismatch")
    scl = SubcircuitLibrary(process=process, cell_library=library)
    for i, (kind, variant, dim) in enumerate(index):
        row = numeric[i]
        stage_slice = stages[int(offsets[i]):int(offsets[i + 1])]
        scl.table(kind).add(
            str(variant),
            int(dim),
            PPARecord(
                delay_ns=float(row[0]),
                energy_pj=float(row[1]),
                area_um2=float(row[2]),
                leakage_mw=float(row[3]),
                cells=int(row[4]),
                stage_delays_ns=tuple(float(x) for x in stage_slice),
            ),
        )
    if scl.entry_count() != int(meta["entry_count"]):
        raise LibraryError("shm SCL: entry count mismatch")
    if scl.entry_count() == 0:
        raise LibraryError("shm SCL: empty payload")
    scl.seal()
    return scl


def publish_default_scl() -> Optional[str]:
    """Parent-side: resolve the default SCL and publish its tensors.

    Returns the segment name, or ``None`` when publishing failed (a
    shm-less platform degrades to the disk-cache behaviour — workers
    just load the artifact as before).
    """
    from ..scl.cache import scl_cache_key
    from ..scl.library import default_scl

    scl = default_scl()
    key = scl_cache_key(scl.cell_library, scl.process, scl.corner)
    meta, arrays = scl_to_tensors(scl)
    try:
        return publish_blob(scl_segment_name(key), pack_tensors(meta, arrays))
    except Exception:
        return None


def attach_default_scl() -> Optional[object]:
    """Worker-side: attach the published default-SCL tensors, install
    the result as this process's default SCL, and return it.

    The segment name is re-derived from this process's own
    library/process fingerprints (cross-process content-hash
    agreement); any miss or mismatch returns ``None`` and the caller
    falls back to :func:`~repro.scl.library.default_scl` resolution.
    """
    from ..errors import LibraryError
    from ..scl.cache import scl_cache_key
    from ..scl.library import install_default_scl

    library = default_library()
    key = scl_cache_key(library, GENERIC_40NM)
    payload = attach_blob(scl_segment_name(key))
    if payload is None:
        return None
    try:
        meta, arrays = unpack_tensors(payload)
        scl = scl_from_tensors(meta, arrays, library, GENERIC_40NM)
    except (LibraryError, ShmFormatError, KeyError, ValueError, TypeError):
        return None
    install_default_scl(scl)
    return scl
