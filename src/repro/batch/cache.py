"""Persistent on-disk result cache for compiled design points.

Compiling one macro takes seconds to minutes (the implementation flow
dominates); design-space sweeps revisit the same (spec, options) points
constantly — re-running a sweep after editing a report, extending a grid
that overlaps the previous one, two users exploring the same corner.
The cache turns all of those into millisecond lookups.

Layout: one JSON file per result under ``<root>/v1/<kk>/<key>.json``
where ``key`` is the job's content hash (see
:meth:`repro.batch.jobs.CompileJob.key`) and ``kk`` its first two hex
digits (keeps directories small on big sweeps).  Files are written
atomically (a fresh ``.tmp-`` file, then ``os.replace``) so a killed
sweep never leaves a truncated record behind.  A corrupt record file
reads as a miss *and* is quarantined (renamed to
``.corrupt-<key>.json``) with one warning per artifact, so a bad entry
is recompiled once instead of being re-read — and re-missed — by every
later lookup;
:func:`cache_corruption_count` makes the churn visible to CI, mirroring
the SCL cache's corruption accounting.

The default root is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; every
CLI entry point takes ``--cache-dir`` to override it.

:class:`ResultStore` is the storage *interface* the batch engine and
the compile service program against — ``get``/``put``/``entry_count``/
``occupancy`` over plain-dict records.  :class:`ResultCache` is the
default filesystem backend; :class:`MemoryResultStore` is the
in-process backend (tests, cache-less services).  Long-lived services
bound the filesystem backend with a size budget
(``$REPRO_CACHE_BUDGET_MB`` or ``ResultCache(budget_mb=...)``): puts
evict least-recently-used records past the budget, while quarantined
``.corrupt-*`` evidence is *never* evicted silently — it counts toward
usage and surfaces in :class:`CacheStats`/:meth:`ResultCache.occupancy`
so an operator decides when the evidence has served its purpose.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import pathlib
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: Bump when the record schema changes incompatibly; old entries are
#: simply never looked up again (they live under the old version dir).
#: v2: records carry per-corner signoff metrics (``implementation.
#: signoff``) and jobs key the corner-name tuple.
#: v3: records carry functional-verification results
#: (``implementation.verified`` / ``implementation.verification``) and
#: jobs key the verify options.
#: v4: multi-Vt — architectures carry a ``vt`` knob, compile jobs key
#: the vt policy, implement jobs key the leakage-recovery flag.
#: v5: resilience — records carry a ``fault`` marker (None outside
#: chaos runs) and the batch engine journals terminal records for
#: crash-safe resume.
CACHE_SCHEMA_VERSION = 5


#: How :meth:`ResultCache.put` opens its temporary file: a new file,
#: never one another writer already holds (Python adds ``O_CLOEXEC``).
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL

#: Record files found corrupt since process start — one warning each,
#: mirroring the SCL cache's per-artifact corruption accounting.
_CORRUPT_KEYS: Set[str] = set()


def cache_corruption_count() -> int:
    """Distinct corrupt result-cache records hit (and quarantined)
    since process start."""
    return len(_CORRUPT_KEYS)


def _quarantine(path: pathlib.Path, key: str, exc: Exception) -> None:
    """Move a corrupt record aside (``.corrupt-<key>.json``, which the
    dot prefix also hides from :meth:`ResultCache.entry_count`) so the
    next lookup is an honest miss → recompile → overwrite, not an
    eternal re-read of the same bad bytes.  A failed rename degrades
    to the old leave-in-place behaviour."""
    quarantined = path.with_name(f".corrupt-{key}.json")
    try:
        os.replace(path, quarantined)
    except OSError:
        quarantined = path
    if key not in _CORRUPT_KEYS:
        _CORRUPT_KEYS.add(key)
        warnings.warn(
            f"repro: result-cache record {path.name} is corrupt "
            f"({type(exc).__name__}: {exc}); quarantined as "
            f"{quarantined.name}, recompiling",
            RuntimeWarning,
            stacklevel=3,
        )


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def default_cache_dir() -> pathlib.Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env).expanduser()
    return pathlib.Path("~/.cache/repro").expanduser()


#: Environment override for the result-store size budget (megabytes);
#: unset/empty means unbounded (the historical behaviour).
ENV_CACHE_BUDGET_MB = "REPRO_CACHE_BUDGET_MB"


def _budget_from_env() -> Optional[float]:
    text = os.environ.get(ENV_CACHE_BUDGET_MB)
    if not text:
        return None
    try:
        budget = float(text)
    except ValueError:
        warnings.warn(
            f"repro: ignoring malformed {ENV_CACHE_BUDGET_MB}={text!r}",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return budget if budget > 0 else None


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Corrupt records this instance hit (each also quarantined and
    #: counted process-wide by :func:`cache_corruption_count`).
    corruptions: int = 0
    #: Records removed (and their bytes) by the size-budget LRU sweep.
    evictions: int = 0
    evicted_bytes: int = 0
    #: Quarantined ``.corrupt-*`` files the last sweep *kept* — they
    #: count toward the budget but are never silently evicted.
    quarantine_kept: int = 0
    #: Hit-path ``os.utime`` refreshes that failed (read-only store,
    #: permission drift); each also lands in the in-process recency
    #: fallback so the LRU sweep still sees the hit.
    recency_touch_failures: int = 0

    def describe(self) -> str:
        line = (
            f"{self.hits} hits, {self.misses} misses, {self.stores} stores"
        )
        if self.evictions:
            line += (
                f", {self.evictions} evicted"
                f" ({self.evicted_bytes / 1e6:.1f} MB)"
            )
        return line


class ResultStore:
    """Interface between record producers and record storage.

    The batch engine and the compile service speak only this surface:
    ``get(key) -> record | None``, ``put(key, record)``, membership,
    and the occupancy accounting a ``/v1/stats`` endpoint reports.
    Implementations must make ``get`` after ``put`` return an equal
    record that shares no mutable part with the one ``put`` was given
    or with any other ``get`` result (the batch engine hands hits to
    its caller uncopied), and must never let a storage failure raise
    into the run that produced the record.
    """

    #: Hit/miss accounting every backend keeps.
    stats: CacheStats

    def get(self, key: str) -> Optional[Dict[str, object]]:
        raise NotImplementedError

    def put(self, key: str, record: Dict[str, object]) -> None:
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def entry_count(self) -> int:
        raise NotImplementedError

    def occupancy(self) -> Dict[str, object]:
        """Store-level accounting for stats endpoints; backends extend
        with whatever they can measure (bytes, budget, quarantine)."""
        return {"entries": self.entry_count()}


class MemoryResultStore(ResultStore):
    """Dict-backed :class:`ResultStore`: per-process, thread-safe,
    optionally LRU-bounded by entry count.  The backend a cache-less
    service uses so in-flight deduplication and result fetches still
    work without touching the filesystem."""

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._records: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[Dict[str, object]]:
        with self._lock:
            record = self._records.get(key)
            if record is None:
                self.stats.misses += 1
                return None
            self._records.move_to_end(key)
            self.stats.hits += 1
            return copy.deepcopy(record)

    def put(self, key: str, record: Dict[str, object]) -> None:
        with self._lock:
            self._records[key] = copy.deepcopy(record)
            self._records.move_to_end(key)
            self.stats.stores += 1
            while (
                self.max_entries is not None
                and len(self._records) > self.max_entries
            ):
                self._records.popitem(last=False)
                self.stats.evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._records

    def entry_count(self) -> int:
        with self._lock:
            return len(self._records)


@dataclass
class ResultCache(ResultStore):
    """Content-addressed JSON artifact store (the default
    :class:`ResultStore` backend).

    ``get``/``put`` speak plain dicts (the record schema of
    :mod:`repro.compiler.syndcim`); the cache neither inspects nor
    validates them beyond JSON round-tripping.

    ``budget_mb`` (default ``$REPRO_CACHE_BUDGET_MB``, unset =
    unbounded) arms the LRU size budget: a hit refreshes its record's
    mtime, and a put past the budget evicts least-recently-used
    records until usage fits.  Quarantined ``.corrupt-*`` evidence is
    counted toward usage but never evicted (see module docstring).
    """

    root: pathlib.Path = field(default_factory=default_cache_dir)
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    budget_mb: Optional[float] = None

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root).expanduser()
        if self.budget_mb is None:
            self.budget_mb = _budget_from_env()
        #: Usage as of the last sweep plus bytes written since; None
        #: until the first sweep.  Lets a put skip the directory walk
        #: while demonstrably under budget.
        self._tracked_bytes: Optional[int] = None
        #: In-process recency fallback (key -> wall-clock hit time) for
        #: records whose hit-path mtime refresh failed — without it a
        #: read-only store makes hot records look *oldest* and the LRU
        #: sweep evicts them first.  Consulted by :meth:`_scan`.
        self._recency_fallback: Dict[str, float] = {}
        #: Shard directories this instance has created (or found), so a
        #: put pays for no ``mkdir`` after the first into each shard.
        self._shards: Set[str] = set()
        #: Temporary names unique to this instance: a random tag plus a
        #: counter (the writer's pid is added per put, for forks).
        self._tmp_tag = os.urandom(4).hex()
        self._tmp_seq = itertools.count()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"v{CACHE_SCHEMA_VERSION}" / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Return the cached record for ``key``, or ``None`` on a miss.

        A missing (or unreadable) file is a quiet miss; a *present but
        unparsable* one is corruption — it is quarantined with a
        warning (see :func:`_quarantine`) and then misses, so the
        caller recompiles and the fresh store lands on a clean path.
        """
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            record = entry["record"]
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
        except OSError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError) as exc:
            self.stats.misses += 1
            self.stats.corruptions += 1
            _quarantine(path, key, exc)
            return None
        self.stats.hits += 1
        if self.budget_mb is not None:
            # Refresh recency so the LRU sweep sees hits, not just
            # writes.  A failed touch (read-only store, permission
            # drift) must not silently age hot records to the front of
            # the eviction queue: count it, warn once per cache, and
            # remember the hit in the in-process fallback map that
            # :meth:`_scan` folds into mtimes for the session.
            try:
                os.utime(path)
            except OSError as exc:
                self.stats.recency_touch_failures += 1
                self._recency_fallback[key] = time.time()
                self._warn_recency_degraded(exc)
            else:
                # Disk recency is authoritative again; drop the stale
                # fallback entry so it cannot pin an old timestamp.
                self._recency_fallback.pop(key, None)
        return record

    def put(self, key: str, record: Dict[str, object]) -> None:
        """Store ``record`` under ``key`` atomically.

        Mirrors :meth:`get`'s tolerance: an unwritable/full filesystem
        degrades to "not cached" rather than raising — a cache store
        failure must never abort the batch run that produced the
        record.
        """
        if not self.enabled:
            return
        path = self._path(key)
        entry = {
            "key": key,
            "schema": CACHE_SCHEMA_VERSION,
            "created": time.time(),
            "record": record,
        }
        try:
            # One dumps() call: json.dump() streams through the
            # pure-Python encoder, ~4x slower for the same bytes.
            data = json.dumps(entry).encode("utf-8")
        except (TypeError, ValueError):
            return  # not JSON-serializable: "not cached", never an abort
        shard = str(path.parent)
        tmp = os.path.join(
            shard,
            f".tmp-{self._tmp_tag}-{os.getpid()}-{next(self._tmp_seq)}.json",
        )
        try:
            fd = self._create(shard, tmp)
        except OSError:
            return
        try:
            try:
                if os.write(fd, data) != len(data):
                    raise OSError("short write")
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except OSError:
            _unlink_quietly(tmp)
            return
        except BaseException:
            _unlink_quietly(tmp)
            raise
        self.stats.stores += 1
        _maybe_inject_corruption(path, key)
        self._note_written(path)

    def _create(self, shard: str, tmp: str) -> int:
        """Open ``tmp`` (a new 0600 file) in ``shard``, creating the
        shard the first time this instance writes there — and once
        more if it has been removed since."""
        if shard not in self._shards:
            os.makedirs(shard, exist_ok=True)
            self._shards.add(shard)
        try:
            return os.open(tmp, _TMP_FLAGS, 0o600)
        except FileNotFoundError:
            os.makedirs(shard, exist_ok=True)
            return os.open(tmp, _TMP_FLAGS, 0o600)

    def __contains__(self, key: str) -> bool:
        return self.enabled and self._path(key).is_file()

    def entry_count(self) -> int:
        """Number of records currently on disk (walks the store)."""
        version_dir = self.root / f"v{CACHE_SCHEMA_VERSION}"
        if not version_dir.is_dir():
            return 0
        # Exclude .tmp-* orphans left by a killed writer and
        # .corrupt-* quarantine leftovers.
        return sum(
            1
            for p in version_dir.glob("*/*.json")
            if not p.name.startswith(".")
        )

    # -- size budget --------------------------------------------------------

    @property
    def budget_bytes(self) -> Optional[int]:
        return (
            None if self.budget_mb is None else int(self.budget_mb * 1e6)
        )

    def _note_written(self, path: pathlib.Path) -> None:
        """Amortized budget enforcement: track bytes written since the
        last sweep and only walk the store when the running total could
        exceed the budget."""
        budget = self.budget_bytes
        if budget is None:
            return
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        if self._tracked_bytes is not None:
            self._tracked_bytes += size
            if self._tracked_bytes <= budget:
                return
        self.enforce_budget()

    def _scan(
        self,
    ) -> Tuple[List[Tuple[float, int, pathlib.Path]], int, int, int]:
        """Walk every schema-version dir once: evictable records as
        (mtime, size, path), plus total / quarantined byte and file
        counts.  ``.tmp-*`` writer orphans are ignored."""
        records: List[Tuple[float, int, pathlib.Path]] = []
        total = 0
        quarantined_bytes = 0
        quarantined = 0
        for version_dir in sorted(self.root.glob("v*")):
            if not version_dir.is_dir():
                continue
            for path in version_dir.glob("*/*.json"):
                name = path.name
                if name.startswith(".tmp-"):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                total += stat.st_size
                if name.startswith("."):
                    # Quarantined (or otherwise hidden) evidence:
                    # counted, never evicted.
                    quarantined += 1
                    quarantined_bytes += stat.st_size
                    continue
                # A hit whose mtime refresh failed still counts as
                # recent for this session (see get()'s fallback map).
                mtime = max(
                    stat.st_mtime,
                    self._recency_fallback.get(path.stem, 0.0),
                )
                records.append((mtime, stat.st_size, path))
        return records, total, quarantined, quarantined_bytes

    def enforce_budget(self) -> int:
        """Evict least-recently-used records until usage fits the
        budget; returns the number evicted.  No-op when unbounded.
        Quarantined evidence survives every sweep — if it alone busts
        the budget, that is reported (via :meth:`occupancy` and a
        one-time warning), not silently resolved."""
        budget = self.budget_bytes
        if budget is None or not self.enabled:
            return 0
        records, usage, quarantined, quarantined_bytes = self._scan()
        self.stats.quarantine_kept = quarantined
        evicted = 0
        if usage > budget:
            records.sort()  # oldest mtime first
            for _mtime, size, path in records:
                if usage <= budget:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                usage -= size
                evicted += 1
                self.stats.evictions += 1
                self.stats.evicted_bytes += size
        if usage > budget and quarantined_bytes:
            # Everything evictable is gone and the store is still over:
            # the overage is quarantined evidence, which only a human
            # may delete.
            self._warn_quarantine_over_budget(quarantined, quarantined_bytes)
        self._tracked_bytes = usage
        return evicted

    _quarantine_warned = False
    _recency_warned = False

    def _warn_recency_degraded(self, exc: Exception) -> None:
        """One warning per cache instance, mirroring the quarantine
        path: LRU recency is degraded to the in-process fallback, which
        dies with the process — an operator should fix the store."""
        if self._recency_warned:
            return
        self._recency_warned = True
        warnings.warn(
            f"repro: result cache could not refresh hit recency under "
            f"{self.root} ({type(exc).__name__}: {exc}); falling back "
            f"to an in-process recency map for this session — LRU "
            f"eviction order degrades across restarts until the store "
            f"is writable again",
            RuntimeWarning,
            stacklevel=3,
        )

    def _warn_quarantine_over_budget(self, count: int, size: int) -> None:
        if self._quarantine_warned:
            return
        self._quarantine_warned = True
        warnings.warn(
            f"repro: result cache exceeds its budget but the excess is "
            f"{count} quarantined .corrupt-* file(s) ({size / 1e6:.1f} "
            f"MB), which are never evicted automatically; inspect and "
            f"delete them under {self.root} to reclaim the space",
            RuntimeWarning,
            stacklevel=2,
        )

    def occupancy(self) -> Dict[str, object]:
        """Entries, bytes, quarantine and budget accounting (one walk)."""
        records, usage, quarantined, quarantined_bytes = self._scan()
        return {
            "entries": len(records),
            "bytes": usage,
            "quarantined": quarantined,
            "quarantined_bytes": quarantined_bytes,
            "budget_mb": self.budget_mb,
            "evictions": self.stats.evictions,
            "evicted_bytes": self.stats.evicted_bytes,
            "recency_touch_failures": self.stats.recency_touch_failures,
        }


def _maybe_inject_corruption(path: pathlib.Path, key: str) -> None:
    """Chaos hook: when ``$REPRO_FAULTS`` arms ``corrupt_cache``,
    truncate the record just written so the *next* lookup exercises the
    quarantine path (see :mod:`repro.batch.faults`).  Free when the
    harness is off — one cached env check."""
    from .faults import active_plan

    plan = active_plan()
    if plan is None or not plan.should("corrupt_cache", key):
        return
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(max(1, size // 2))
    except OSError:
        pass
