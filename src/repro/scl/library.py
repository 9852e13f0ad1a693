"""The Subcircuit Library object and its process-wide cache."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..errors import LibraryError
from ..tech.process import GENERIC_40NM, Process
from ..tech.stdcells import StdCellLibrary, default_library
from .lut import PPARecord, PPATable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..signoff.corners import Corner

KINDS = (
    "adder_tree",
    "mult_mux",
    "shift_adder",
    "ofu",
    "fuse_stage",
    "wl_driver",
    "bl_driver",
    "alignment",
    "memcell",
)


class SubcircuitLibrary:
    """PPA lookup tables for all seven DCIM subcircuit types.

    Built once per process by :func:`repro.scl.builder.build_default_scl`
    and then queried (read-only once sealed) by the multi-spec-oriented
    searcher and the baselines.
    """

    def __init__(
        self,
        process: Process,
        cell_library: StdCellLibrary,
        corner: Optional["Corner"] = None,
    ) -> None:
        self.process = process
        self.cell_library = cell_library
        #: Signoff corner the records were characterized at (``None``
        #: means the nominal TT/V/T characterization point).
        self.corner = corner
        self._tables: Dict[str, PPATable] = {k: PPATable(k) for k in KINDS}
        self._sealed = False

    def table(self, kind: str) -> PPATable:
        try:
            table = self._tables[kind]
        except KeyError:
            raise LibraryError(
                f"unknown subcircuit kind {kind!r}; known: {KINDS}"
            ) from None
        return table

    def lookup(self, kind: str, variant: str, dim: int) -> PPARecord:
        return self.table(kind).lookup(variant, dim)

    def seal(self) -> None:
        self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    def entry_count(self) -> int:
        return sum(len(t) for t in self._tables.values())


_CACHE: Dict[Tuple, SubcircuitLibrary] = {}

#: How the per-(process, corner) default SCL was most recently
#: obtained: ``"built"`` (fresh characterization) or ``"disk"``
#: (persistent cache artifact).  Diagnostics for tests and the perf
#: harness.
_SOURCE: Dict[Tuple, str] = {}


def _cache_key(process: Process, corner: Optional["Corner"]) -> Tuple:
    return (process.name, None if corner is None else corner.key())


def default_scl(
    process: Optional[Process] = None,
    corner: Optional["Corner"] = None,
    library: Optional[StdCellLibrary] = None,
) -> SubcircuitLibrary:
    """Shared, lazily built SCL for the default cell library.

    Resolution order: the in-process cache, then the persistent on-disk
    artifact (see :mod:`repro.scl.cache` — milliseconds), then a full
    characterization whose result is persisted for every later process.

    ``corner`` resolves the library characterized at that signoff
    operating point (see :func:`repro.scl.builder.build_default_scl`);
    corner libraries live in the same persistent cache under keys that
    include the corner tuple, so a repeated corner is warm across
    processes exactly like the nominal library.

    ``library`` swaps in an alternate standard-cell backend — e.g. one
    imported from a .lib file via
    :func:`repro.tech.liberty.read_liberty_library`.  Alternate
    backends share the persistent disk cache (the content hash covers
    every cell, so an imported copy of the default library resolves to
    the *same* artifact) but skip the in-process memoization: the
    caller owns the returned object's lifetime.
    """
    from .builder import build_default_scl
    from .cache import load_cached_scl, store_cached_scl

    process = process or GENERIC_40NM
    if library is not None and library is not default_library():
        scl = load_cached_scl(library, process, corner)
        if scl is None:
            scl = build_default_scl(library, process, corner=corner)
            store_cached_scl(scl)
        return scl
    key = _cache_key(process, corner)
    if key not in _CACHE:
        library = default_library()
        scl = load_cached_scl(library, process, corner)
        if scl is None:
            scl = build_default_scl(library, process, corner=corner)
            store_cached_scl(scl)
            _SOURCE[key] = "built"
        else:
            _SOURCE[key] = "disk"
        _CACHE[key] = scl
    return _CACHE[key]


def install_default_scl(scl: SubcircuitLibrary) -> None:
    """Seed the in-process cache's nominal default SCL with an
    externally resolved library (e.g. one attached from a shared-memory
    segment — see :mod:`repro.shm.scl`).  Later :func:`default_scl`
    calls for the default process at the nominal corner return it
    without touching the disk cache or the characterizer.  An unsealed
    library is rejected: the cache only ever holds read-only sealed
    objects."""
    if not scl.sealed:
        raise LibraryError("install_default_scl requires a sealed library")
    key = _cache_key(GENERIC_40NM, None)
    _CACHE[key] = scl
    _SOURCE[key] = "shm"


def default_scl_source(
    process: Optional[Process] = None,
    corner: Optional["Corner"] = None,
) -> Optional[str]:
    """``"built"``/``"disk"`` for an already-resolved default SCL, else
    ``None`` (never triggers a build).

    A ``"built"`` that *should* have been ``"disk"`` usually means a
    corrupt or schema-stale artifact was hit on the way — pair with
    :func:`repro.scl.cache.scl_cache_corruption_count` to tell churn
    from a legitimately cold cache."""
    return _SOURCE.get(_cache_key(process or GENERIC_40NM, corner))

