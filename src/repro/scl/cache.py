"""Persistent on-disk cache for the characterized subcircuit library.

Building the default SCL costs the better part of a second of pure
characterization — and before this cache existed that price was paid by
*every process*: each CLI invocation, each pytest session, and each
batch-engine worker.  The sealed library, however, is a pure function of

* the process node (every :class:`~repro.tech.process.Process` field)
  and, for corner libraries, the signoff corner tuple
  (name, process sigma, supply scale, temperature),
* the standard-cell library (geometry, arcs, energies **and** logic
  behaviour — each cell's truth table is in the fingerprint so a
  changed cell function invalidates the artifact), and
* the builder configuration (characterization grids, port statistics,
  reference frequency) plus the shared delay/slew/wire-model constants.

so it serializes into a content-addressed JSON artifact: one cold build
per machine, then every later process loads 261 records in
milliseconds.  Layout::

    <cache dir>/v<schema>/<key>.json

where ``<cache dir>`` defaults to ``~/.cache/repro/scl`` (under
``$REPRO_CACHE_DIR`` when set) and ``key`` is a SHA-256 over a
memo-free pickle of the fingerprints above (see
:func:`scl_cache_key`).  Any mismatch — unknown
schema, wrong key, truncated file, missing table — reads as a miss and
triggers a fresh build that overwrites the artifact atomically
(tempfile + ``os.replace``), so a killed process can never leave a
truncated library behind.

Escape hatches
--------------
``REPRO_SCL_CACHE=off|0|false|no|disabled``
    disable the disk cache entirely (every process re-characterizes);
``REPRO_SCL_CACHE=<path>``
    relocate the artifact directory;
``--no-scl-cache``
    the CLI flag equivalent (sets the environment variable, so batch
    workers inherit the choice).

See ``docs/performance.md`` for the full story.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import pickle
import sys
import tempfile
import time
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Set

from ..errors import LibraryError
from ..tech.process import Process
from ..tech.stdcells import Cell, StdCellLibrary, TruthTable
from .lut import PPARecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..signoff.corners import Corner

#: Bump on any incompatible change to the artifact layout *or* to the
#: record semantics that the fingerprints cannot see.
#: v2: multi-Vt / multi-drive cell variants — cell fingerprints carry
#: (vt, drive), and the default library spans the full variant grid.
SCL_CACHE_SCHEMA = 2

#: Values of ``REPRO_SCL_CACHE`` that mean "disabled" rather than a path.
_OFF_VALUES = frozenset({"off", "0", "false", "no", "disabled"})

_ENV_VAR = "REPRO_SCL_CACHE"


def scl_cache_enabled() -> bool:
    """Whether the persistent SCL cache is active for this process."""
    value = os.environ.get(_ENV_VAR, "").strip()
    return value.lower() not in _OFF_VALUES if value else True


def scl_cache_dir() -> pathlib.Path:
    """Artifact directory: ``$REPRO_SCL_CACHE`` if it names a path,
    else ``$REPRO_CACHE_DIR/scl``, else ``~/.cache/repro/scl``."""
    value = os.environ.get(_ENV_VAR, "").strip()
    if value and value.lower() not in _OFF_VALUES:
        return pathlib.Path(value).expanduser()
    base = os.environ.get("REPRO_CACHE_DIR")
    if base:
        return pathlib.Path(base).expanduser() / "scl"
    return pathlib.Path("~/.cache/repro/scl").expanduser()


# --------------------------------------------------------------------------
# Fingerprints.
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _table_string(table: TruthTable) -> str:
    """A cell's truth table as one row-major bit string (``"01|10"``
    for an inverter) — a flat string keeps the serialized fingerprint
    small enough that hashing a 279-cell variant grid stays in the low
    milliseconds.  Cached per table: every (vt, drive) variant of a
    family shares one."""
    return "|".join("".join(map(str, row)) for row in table)


def cell_fingerprint(cell: Cell) -> dict:
    """Everything characterization can observe about one cell."""
    return {
        "name": cell.name,
        "area_um2": cell.area_um2,
        "input_caps_ff": dict(cell.input_caps_ff),
        "outputs": list(cell.outputs),
        "arcs": [
            [a.input_pin, a.output_pin, a.d0_ns, a.r_kohm]
            for a in cell.arcs
        ],
        "leakage_nw": cell.leakage_nw,
        "internal_energy_fj": dict(cell.internal_energy_fj),
        "truth_table": (
            None if cell.truth_table is None else _table_string(cell.truth_table)
        ),
        "is_sequential": cell.is_sequential,
        "clk_pin": cell.clk_pin,
        "clk_to_q_ns": cell.clk_to_q_ns,
        "setup_ns": cell.setup_ns,
        "hold_ns": cell.hold_ns,
        "is_memory": cell.is_memory,
        "width_um": cell.width_um,
        "height_um": cell.height_um,
        "tags": list(cell.tags),
        # The (vt, drive) grid coordinates are first-class identity:
        # swapping a flavor in must re-key even if the scaled numbers
        # were to collide.  The textual pin_functions are deliberately
        # absent — the truth table already pins the semantics, so a
        # cosmetic expression rewrite cannot churn the artifacts.
        "vt": cell.vt,
        "drive": cell.drive,
    }


def library_fingerprint(library: StdCellLibrary) -> dict:
    return {name: cell_fingerprint(library.cell(name)) for name in library.names}


def process_fingerprint(process: Process) -> dict:
    return {
        "name": process.name,
        "vdd_nominal": process.vdd_nominal,
        "vdd_min": process.vdd_min,
        "vdd_max": process.vdd_max,
        "vth": process.vth,
        "alpha": process.alpha,
        "wire_cap_ff_per_um": process.wire_cap_ff_per_um,
        "wire_res_kohm_per_um": process.wire_res_kohm_per_um,
        "track_pitch_um": process.track_pitch_um,
        "row_height_um": process.row_height_um,
        "temp_nominal_c": process.temp_nominal_c,
        "temp_delay_per_c": process.temp_delay_per_c,
        "temp_leak_exp_c": process.temp_leak_exp_c,
    }


def corner_fingerprint(corner: Optional["Corner"]) -> Optional[dict]:
    """Identity of the signoff corner a library was characterized at.

    ``None`` (the nominal characterization point) fingerprints as
    ``None`` — deliberately identical to the pre-corner schema payload
    shape, extended with the process-sigma deratings so a recalibrated
    sigma invalidates the corner artifacts that baked it in.
    """
    if corner is None:
        return None
    return {
        "name": corner.name,
        "process_corner": corner.process_corner,
        "vdd_scale": corner.vdd_scale,
        "temp_c": corner.temp_c,
        "delay_factor": corner.sigma.delay_factor,
        "leakage_factor": corner.sigma.leakage_factor,
    }


def model_fingerprint() -> dict:
    """Analysis-model constants the records numerically depend on."""
    from ..power import activity
    from ..sta import analysis, graph
    from ..tech import characterization

    return {
        "slew_sensitivity": characterization.SLEW_SENSITIVITY,
        "slew_gain": characterization.SLEW_GAIN,
        "wlm_ff_per_sink": graph.DEFAULT_WLM_FF_PER_SINK,
        "start_slew_ns": analysis.START_SLEW_NS,
        "default_probability": activity.DEFAULT_PROBABILITY,
        "default_density": activity.DEFAULT_DENSITY,
        "clock_density": activity.CLOCK_DENSITY,
        "glitch_density_cap": activity.GLITCH_DENSITY_CAP,
    }


def scl_cache_key(
    library: StdCellLibrary,
    process: Process,
    corner: Optional["Corner"] = None,
) -> str:
    """Content hash over everything a cold build is a function of —
    including the signoff corner tuple for corner-characterized
    libraries, so every (process, corner) pair owns its own artifact."""
    from .builder import grid_fingerprint

    payload = {
        "schema": SCL_CACHE_SCHEMA,
        "process": process_fingerprint(process),
        "corner": corner_fingerprint(corner),
        "cells": library_fingerprint(library),
        "builder": grid_fingerprint(),
        "model": model_fingerprint(),
    }
    # Memo-free pickle instead of canonical JSON: ~10x faster over the
    # 279-cell variant grid, and key computation is the dominant cost of
    # every warm default_scl().  Determinism holds because fingerprint
    # dicts are built in one fixed literal order; disabling the pickler
    # memo (``fast``) keeps the bytes a function of *values* only, so
    # cells that share interned truth-table strings hash identically to
    # an imported copy that does not.  A key drift (new Python pickling
    # ints differently, say) can only cause a rebuild, never a stale hit
    # — the stored key is re-derived from the same payload.
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=4)
    pickler.fast = True
    pickler.dump(payload)
    return hashlib.sha256(buf.getvalue()).hexdigest()


# --------------------------------------------------------------------------
# Serialization.
# --------------------------------------------------------------------------


def _record_to_dict(record: PPARecord) -> dict:
    return {
        "delay_ns": record.delay_ns,
        "energy_pj": record.energy_pj,
        "area_um2": record.area_um2,
        "leakage_mw": record.leakage_mw,
        "cells": record.cells,
        "stage_delays_ns": list(record.stage_delays_ns),
    }


def _record_from_dict(data: dict) -> PPARecord:
    return PPARecord(
        delay_ns=float(data["delay_ns"]),
        energy_pj=float(data["energy_pj"]),
        area_um2=float(data["area_um2"]),
        leakage_mw=float(data["leakage_mw"]),
        cells=int(data["cells"]),
        stage_delays_ns=tuple(
            float(x) for x in data.get("stage_delays_ns", ())
        ),
    )


def scl_to_payload(scl, key: str) -> dict:
    """Serializable form of a sealed library (JSON floats round-trip
    exactly, so the reloaded records are bit-identical)."""
    from .library import KINDS

    tables = {}
    for kind in KINDS:
        tables[kind] = [
            [variant, dim, _record_to_dict(rec)]
            for (variant, dim), rec in scl.table(kind).items()
        ]
    return {
        "schema": SCL_CACHE_SCHEMA,
        "key": key,
        "created": time.time(),
        "process": scl.process.name,
        "corner": None if scl.corner is None else list(scl.corner.key()),
        "entry_count": scl.entry_count(),
        "tables": tables,
    }


def scl_from_payload(
    payload: dict,
    library: StdCellLibrary,
    process: Process,
    corner: Optional["Corner"] = None,
):
    """Rebuild a sealed library from a payload; raises on any mismatch
    (the caller treats every failure as a cache miss)."""
    from .library import KINDS, SubcircuitLibrary

    if payload.get("schema") != SCL_CACHE_SCHEMA:
        raise LibraryError("SCL cache: schema mismatch")
    if payload.get("process") != process.name:
        raise LibraryError("SCL cache: process mismatch")
    want = None if corner is None else list(corner.key())
    if payload.get("corner") != want:
        raise LibraryError("SCL cache: corner mismatch")
    tables = payload["tables"]
    scl = SubcircuitLibrary(process=process, cell_library=library,
                            corner=corner)
    for kind in KINDS:
        for variant, dim, data in tables[kind]:
            scl.table(kind).add(str(variant), int(dim), _record_from_dict(data))
    if scl.entry_count() != int(payload["entry_count"]):
        raise LibraryError("SCL cache: entry count mismatch")
    if scl.entry_count() == 0:
        raise LibraryError("SCL cache: empty artifact")
    scl.seal()
    return scl


# --------------------------------------------------------------------------
# Disk plumbing.
# --------------------------------------------------------------------------


def _artifact_path(key: str) -> pathlib.Path:
    return scl_cache_dir() / f"v{SCL_CACHE_SCHEMA}" / f"{key}.json"


#: Artifacts found corrupt (or schema-mismatched) since process start —
#: each triggers exactly one warning line, so CI logs show cache churn
#: without being flooded by repeated lookups of the same bad file.
_CORRUPT_KEYS: Set[str] = set()


def scl_cache_corruption_count() -> int:
    """Distinct corrupt artifacts hit since process start (see
    :func:`~repro.scl.library.default_scl_source` for the built/disk
    resolution these corruption events degrade to)."""
    return len(_CORRUPT_KEYS)


def _note_corruption(key: str, path: pathlib.Path, exc: Exception) -> None:
    if key in _CORRUPT_KEYS:
        return
    _CORRUPT_KEYS.add(key)
    print(
        f"repro: SCL cache artifact {path.name} is corrupt or stale "
        f"({exc}); rebuilding",
        file=sys.stderr,
    )


def load_cached_scl(
    library: StdCellLibrary,
    process: Process,
    corner: Optional["Corner"] = None,
):
    """The persisted library for this tech stack (at ``corner``, when
    given), or ``None``.

    Every failure mode — cache disabled, artifact missing, unreadable,
    corrupted, fingerprint drift (which changes the key, so the old
    artifact is simply never looked up) — degrades to ``None`` and a
    fresh characterization.  A *present but unusable* artifact is not
    silent, though: it logs one warning line per artifact and bumps
    :func:`scl_cache_corruption_count`, so cache churn shows up in CI.
    """
    if not scl_cache_enabled():
        return None
    key = scl_cache_key(library, process, corner)
    path = _artifact_path(key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("key") != key:
            raise LibraryError("SCL cache: key mismatch")
        return scl_from_payload(payload, library, process, corner)
    except FileNotFoundError:
        return None  # plain miss — the common, quiet case
    except (OSError, ValueError, KeyError, TypeError, LibraryError) as exc:
        _note_corruption(key, path, exc)
        return None


def store_cached_scl(scl) -> Optional[pathlib.Path]:
    """Persist a sealed library atomically; returns the artifact path or
    ``None`` when disabled / the filesystem refuses (a store failure
    must never break the build that produced the library)."""
    if not scl_cache_enabled():
        return None
    key = scl_cache_key(scl.cell_library, scl.process, scl.corner)
    path = _artifact_path(key)
    payload = scl_to_payload(scl, key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
    except OSError:
        return None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
