"""The persistent result store: one append-only log segment per run.

Compiling one macro takes seconds to minutes (the implementation flow
dominates); design-space sweeps revisit the same (spec, options) points
constantly — re-running a sweep after editing a report, extending a grid
that overlaps the previous one, two users exploring the same corner.
The store turns all of those into lookups.

Layout: ``<root>/log/<run id>.jsonl`` is the segment of one writing run
(a batch run, a service lifetime, or a :class:`ResultCache` that
``put``-s records itself): ``O_APPEND``, mode 0600, one ``write`` per
line, so a killed writer leaves at most a torn last line, which the
next writer ends.  Each line is a JSON object led by the CRC-32 of the
rest of it::

    {"crc": "1c2d3e4f", "event": "done", "key": "<job key>",
     "cacheable": true, "len": 3301, "record": {...}}

A run's journal (:class:`~repro.batch.resilience.SweepJournal`) *is* its
segment, and a ``cacheable`` ``done`` line is also the store entry for
its key: each record is encoded and written once.  A run that completes
*seals* its segment by writing ``<run id>.idx`` beside it, the segment's
own ``key -> (offset, length)`` index.

:class:`ResultCache` keeps ``key -> (segment, offset, length)`` in
memory.  It loads the index file of each sealed segment, streams (in
bounded chunks) the segments that are not sealed, and on a miss
streams the new tails of those that grew.  Streaming checks each
line's layout only, unless the segment is marked damaged
(``<run id>.bad``): then it checks every line's CRC.  Every read checks
its line's CRC: a hit is one ``pread``, a CRC check and one
``json.loads``, and a read that fails the check streams its segment
again with every line's CRC checked.  A damaged line is a miss, counted
once per process (:func:`cache_corruption_count`) and per store in
:meth:`ResultCache.occupancy`, with one warning per segment; it stays
in place as quarantine evidence, and its segment is marked damaged
(the mark replaces the index file) so that every later reader counts it
too.

Segments are dropped whole by one compaction step shared by ``prune``
(``repro journal --prune``, the service's ``journal_keep``) and the
size budget (``$REPRO_CACHE_BUDGET_MB``): the live cacheable entries
of a dropped segment (for the budget, those this process has hit since
they were last carried) move to the writer's segment first, and a
segment holding a damaged line is never deleted.  The budget drops
only sealed segments and the store's own live one, never a live run's
resume state.

The default root is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; every
CLI entry point takes ``--cache-dir`` to override it.  The
one-file-per-record ``<root>/v5/`` tree of earlier versions is neither
read nor migrated, and may be deleted.

:class:`ResultStore` is the storage *interface* the batch engine and
the compile service program against — ``get``/``put``/``entry_count``/
``occupancy`` over plain-dict records.  :class:`ResultCache` is the
default filesystem backend; :class:`MemoryResultStore` is the
in-process backend (tests, cache-less services).
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import json
import os
import pathlib
import threading
import time
import uuid
import warnings
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Hashed into every job key: bump when the record schema changes
#: incompatibly, and old entries are simply never looked up again.
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

#: Segment bytes read per chunk when streaming a segment.
_CHUNK = 1 << 18
#: Every line starts ``{"crc": "<8 hex digits>", ``; the CRC covers the
#: line from byte ``_BODY`` on, newline excluded.
_HEAD = b'{"crc": "'
_BODY = 20
_DONE = b'"event": "done", "key": "'
_CACHEABLE = b'", "cacheable": true, "len": '
_RECORD = b'"record": '
#: Retry annotations a ``done`` line keeps beside its record, so the
#: record stays what a fault-free execution returned.
BOOKKEEPING = ("attempts", "retry_history")

#: Damaged lines found since process start, as (segment path, offset),
#: and the segments already warned about.
_DAMAGED: Set[Tuple[str, int]] = set()
_WARNED: Set[str] = set()


def cache_corruption_count() -> int:
    """Distinct damaged result-log lines found since process start."""
    return len(_DAMAGED)


def count_damage(path: pathlib.Path, offset: int, why: str) -> bool:
    """Count the damaged line at ``offset`` of segment ``path`` once per
    process (``True`` the first time), with one warning per segment."""
    if (str(path), offset) in _DAMAGED:
        return False
    _DAMAGED.add((str(path), offset))
    if str(path) not in _WARNED:
        _WARNED.add(str(path))
        warnings.warn(
            f"repro: result-log segment {path.name} has a damaged line "
            f"at byte {offset} ({why}); skipped, so its point "
            f"recompiles, and quarantined in place: the segment is "
            f"never deleted automatically",
            RuntimeWarning,
            stacklevel=4,
        )
    return True


def new_run_id() -> str:
    """Sortable-by-start-time, collision-safe run identifier."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


def default_cache_dir() -> pathlib.Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env).expanduser()
    return pathlib.Path("~/.cache/repro").expanduser()


def log_dir(root: os.PathLike) -> pathlib.Path:
    return pathlib.Path(root).expanduser() / "log"


def index_path(segment: pathlib.Path) -> pathlib.Path:
    """The index file that seals ``segment``; it becomes ``<stem>.bad``
    once a damaged line is found in the segment."""
    return segment.with_suffix(".idx")


def list_journals(root: os.PathLike) -> List[pathlib.Path]:
    """The log segments under ``root``, newest first (by mtime, then
    name: run ids sort by start time)."""
    aged = []
    for path in log_dir(root).glob("*.jsonl"):
        with contextlib.suppress(OSError):
            aged.append((path.stat().st_mtime, path.name, path))
    return [path for *_, path in sorted(aged, reverse=True)]


# -- line format -------------------------------------------------------------


def encode_line(body: bytes) -> bytes:
    """One log line; ``body`` is a JSON object's text without its ``{``."""
    return b'{"crc": "%08x", ' % zlib.crc32(body) + body + b"\n"


def encode_done(
    key: str, record: bytes, cacheable: bool, extra: Dict[str, object]
) -> bytes:
    """The ``done`` line of an encoded ``record``, with ``extra``
    bookkeeping fields beside it."""
    head = b'"event": "done", "key": %s, "cacheable": %s, "len": %d' % (
        json.dumps(key).encode(),
        b"true" if cacheable else b"false",
        len(record),
    )
    if extra:
        head += b", " + json.dumps(extra).encode()[1:-1]
    return encode_line(head + b", " + _RECORD + record + b"}")


def crc_ok(buf, at: int, end: int) -> bool:
    """Whether the line ``buf[at:end]`` (no newline) matches its CRC."""
    try:
        return buf.startswith(_HEAD, at) and int(
            buf[at + 9:at + 17], 16
        ) == zlib.crc32(memoryview(buf)[at + _BODY:end])
    except ValueError:
        return False


def segment_lines(
    path, start: int = 0
) -> Iterator[Tuple[int, bytearray, int, int, bool]]:
    """``(offset, buf, at, end, whole)`` per line of a segment from byte
    ``start`` on, streamed through one reused ``_CHUNK``-byte buffer:
    the line is ``buf[at:end]`` (valid until the next step); a last line
    without its newline comes with ``whole=False``."""
    buf, have, pos = bytearray(_CHUNK), 0, start
    with open(path, "rb", buffering=0) as fh:
        fh.seek(start)
        while True:
            if have == len(buf):
                buf.extend(bytes(len(buf)))
            with memoryview(buf) as view:
                got = fh.readinto(view[have:])
            if not got:
                break
            have, at = have + got, 0
            while True:
                end = buf.find(b"\n", at, have)
                if end < 0:
                    break
                yield pos + at, buf, at, end, True
                at = end + 1
            buf[:have - at] = buf[at:have]
            pos, have = pos + at, have - at
    if have:
        yield pos, buf, 0, have, False


def scan_segment(
    path, start: int = 0, verify: bool = True
) -> Iterator[Tuple[int, int, object]]:
    """``(offset, length, entry)`` per whole line of a segment from byte
    ``start`` on: ``entry`` is ``(key, record length)`` for a cacheable
    ``done`` line, ``()`` for another line and ``None`` for a damaged
    one — one failing its CRC, or only its layout unless ``verify``.  A
    last line without its newline (its writer may still be writing it)
    is not reported."""
    for offset, buf, at, end, whole in segment_lines(path, start):
        length = end + 1 - at
        if not whole:
            return
        if not (crc_ok(buf, at, end) if verify else buf.startswith(_HEAD, at)):
            yield offset, length, None
            continue
        first = at + _BODY + len(_DONE)
        quote = buf.find(b'"', first, end)
        if not (
            buf.startswith(_DONE, at + _BODY)
            and buf.startswith(_CACHEABLE, quote)
        ):
            yield offset, length, ()
            continue
        size_at = quote + len(_CACHEABLE)
        try:
            size = int(buf[size_at:buf.index(b",", size_at, end)])
            yield offset, length, (buf[first:quote].decode("ascii"), size)
        except ValueError:
            yield offset, length, None


def write_index(segment: pathlib.Path) -> None:
    """Seal ``segment``: write its index file, unless a line of it is
    damaged or torn (then every reader streams it, and counts the
    damage).  A filesystem refusal leaves it unsealed."""
    keys, at, lengths, sizes, end = [], [], [], [], 0
    try:
        for offset, length, entry in scan_segment(segment):
            if entry is None:
                return
            end = offset + length
            if entry:
                keys.append(entry[0])
                at.append(offset)
                lengths.append(length)
                sizes.append(entry[1])
        if os.stat(segment).st_size != end:
            return
        body = {"size": end, "keys": keys, "at": at, "len": lengths,
                "rec": sizes}
        tmp = segment.with_suffix(".tmp")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC
        with open(os.open(tmp, flags, 0o600), "wb") as fh:
            fh.write(encode_line(json.dumps(body)[1:].encode()))
        os.replace(tmp, index_path(segment))
    except OSError:
        pass


def _record_at(
    data: bytes, key: str, size: int
) -> Optional[Dict[str, object]]:
    """The record a ``pread`` of ``key``'s ``done`` line holds, or
    ``None`` when the line fails its CRC or layout check."""
    start = len(data) - 2 - size
    if (
        data[-2:] != b"}\n"
        or not data.startswith(_DONE + key.encode() + b'"', _BODY)
        or data[start - len(_RECORD):start] != _RECORD
        or not crc_ok(data, 0, len(data) - 1)
    ):
        return None
    try:
        record = json.loads(data[start:-2])
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def _close_quietly(fd: int) -> None:
    with contextlib.suppress(OSError):
        os.close(fd)


class SegmentWriter:
    """Appends whole lines to one run's segment, ``<root>/log/<run
    id>.jsonl`` (``<run id>.<n>.jsonl`` once the segment before it was
    sealed or dropped): opened lazily, ``O_APPEND``, mode 0600, one
    ``write`` per :meth:`append`.  The first filesystem refusal turns
    it off — a full disk means "not logged", never an aborted run."""

    #: Whether the segment is a run's resume state, which the size
    #: budget must not drop while the run is live.
    resumable = False

    def __init__(self, root: os.PathLike, run_id: str) -> None:
        self.root, self.run_id = pathlib.Path(root).expanduser(), run_id
        self.path = log_dir(self.root) / f"{run_id}.jsonl"
        self._seq, self._fd, self._broken = 0, None, False
        self._lock = threading.Lock()

    def append(self, data: bytes) -> bool:
        """Write ``data`` (whole lines); ``False`` when the log refused it."""
        with self._lock:
            if self._broken:
                return False
            try:
                if self._fd is None:
                    self._open()
                if os.write(self._fd, data) != len(data):
                    raise OSError("short write")
            except OSError:
                self._broken = True
                self._close()
                return False
            return True

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while index_path(self.path).exists():  # sealed: never reopened
            self._next()
        fd = os.open(
            self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND | os.O_CLOEXEC,
            0o600,
        )
        try:
            end = os.fstat(fd).st_size
            if end and os.pread(fd, 1, end - 1) != b"\n":
                # A killed writer's torn line ends here, as one damaged
                # line, instead of swallowing the next one.
                os.write(fd, b"\n")
        except OSError:
            os.close(fd)
            raise
        self._fd = fd

    def _next(self) -> None:
        self._seq += 1
        self.path = log_dir(self.root) / f"{self.run_id}.{self._seq}.jsonl"

    def rotate(self) -> None:
        """Continue in a fresh segment (the current one is dropped)."""
        with self._lock:
            self._close()
            self._next()

    def seal(self) -> None:
        """Close the segment and seal it (:func:`write_index`): it is
        complete, so readers may load its index instead of streaming it
        and the size budget may drop it.  A later :meth:`append` opens
        the next segment."""
        with self._lock:
            if self._fd is not None:
                self._close()
                write_index(self.path)
                self._next()

    def close(self) -> None:
        with self._lock:
            self._close()

    def _close(self) -> None:
        if self._fd is not None:
            _close_quietly(self._fd)
            self._fd = None

    __del__ = _close


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
    """Hit/miss counters for one store instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Damaged lines this instance was first to find (each also counted
    #: process-wide by :func:`cache_corruption_count`).
    corruptions: int = 0
    #: Entries dropped (and segment bytes freed) by compaction.
    evictions: int = 0
    evicted_bytes: int = 0
    #: Segments holding a damaged line as of the last budget sweep —
    #: they count toward the budget but are never dropped.
    quarantine_kept: int = 0


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
    """Dict-backed :class:`ResultStore`: per-process, thread-safe.  The
    backend a cache-less service uses so in-flight deduplication and
    result fetches still work without touching the filesystem."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._records: Dict[str, Dict[str, object]] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[Dict[str, object]]:
        with self._lock:
            record = self._records.get(key)
            if record is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return copy.deepcopy(record)

    def put(self, key: str, record: Dict[str, object]) -> None:
        with self._lock:
            self._records[key] = copy.deepcopy(record)
            self.stats.stores += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._records

    def entry_count(self) -> int:
        with self._lock:
            return len(self._records)


class ResultCache(ResultStore):
    """The log-backed, thread-safe :class:`ResultStore` under ``root``
    (default :func:`default_cache_dir`; see the module docstring);
    records are plain dicts, never inspected beyond JSON
    round-tripping.  ``budget_mb`` (``$REPRO_CACHE_BUDGET_MB``, unset =
    unbounded) arms the size budget, enforced after writes."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = (
            pathlib.Path(root).expanduser() if root else default_cache_dir()
        )
        self._log = log_dir(self.root)
        self.stats = CacheStats()
        self.budget_mb = _budget_from_env()
        self._lock = threading.RLock()
        #: key -> (segment, offset, line length, record length) of its
        #: live cacheable ``done`` line; bytes of each segment indexed,
        #: and the segments known complete (sealed: they never grow).
        self._index: Dict[str, Tuple[str, int, int, int]] = {}
        self._scanned: Dict[str, int] = {}
        self._sealed: Set[str] = set()
        #: segment -> {offset: length} of the damaged lines found in it,
        #: and the segments marked as holding one.
        self._bad: Dict[str, Dict[int, int]] = {}
        self._marked: Set[str] = set()
        #: The last listing of the log directory and its mtime.
        self._stamp: Optional[int] = None
        self._names: List[str] = []
        self._listed_sealed: Set[str] = set()
        #: Read-only descriptors of the segments hits were read from.
        self._readers: Dict[str, int] = {}
        #: Keys hit since they were last carried: what the size budget
        #: keeps when it drops their segment.
        self._hit: Set[str] = set()
        #: Where ``put`` and compaction append: an attached run's
        #: journal, else this store's own segment.
        self._attached: Optional[SegmentWriter] = None
        self._own: Optional[SegmentWriter] = None

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored record for ``key``, or ``None`` on a miss."""
        with self._lock:
            record = self._read(key)
            if record is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
                if self.budget_mb is not None:
                    self._hit.add(key)
            return record

    def _read(self, key: str) -> Optional[Dict[str, object]]:
        if key not in self._index:
            self._refresh()
        loc = self._index.get(key)
        if loc is None:
            return None
        name, offset, length, size = loc
        data = self._pread(name, offset, length)
        record = None if data is None else _record_at(data, key, size)
        if data is None:  # compacted away by another process
            self._forget({name})
        elif record is None:
            # Damaged since it was indexed: index the segment afresh,
            # checking every line's CRC, and count what is damaged.
            self._mark(name)
            self._forget({name})
            self._scan(name, 0)
            if self._index.get(key) == loc:  # intact, yet not a record
                del self._index[key]
                self._damage(name, offset, length, "not a record")
        return record

    def _pread(self, name: str, offset: int, length: int) -> Optional[bytes]:
        try:
            fd = self._readers.get(name)
            if fd is None:
                fd = os.open(self._log / name, os.O_RDONLY | os.O_CLOEXEC)
                self._readers[name] = fd
            return os.pread(fd, length, offset)
        except OSError:
            return None

    def _list(self) -> None:
        """List the log directory again unless it is unchanged since the
        last listing (its mtime, unless that is too recent to tell a
        later change within the same clock tick apart)."""
        try:
            stamp = os.stat(self._log).st_mtime_ns
        except OSError:
            stamp = None
        if stamp == self._stamp and time.time_ns() - (stamp or 0) > 2e9:
            return
        self._stamp = stamp
        self._names, self._listed_sealed, self._marked = [], set(), set()
        with contextlib.suppress(OSError):
            for entry in os.listdir(self._log):
                stem, _, kind = entry.rpartition(".")
                if kind == "jsonl":
                    self._names.append(entry)
                elif kind == "idx":
                    self._listed_sealed.add(stem + ".jsonl")
                elif kind == "bad":
                    self._marked.add(stem + ".jsonl")
        # Unlinked by another process's compaction:
        self._forget(self._scanned.keys() - set(self._names))

    def _refresh(self) -> List[str]:
        """Index what the log gained since the last look: new sealed
        segments from their index files, other new or grown segments
        by streaming their tails.  Returns the segment names."""
        self._list()
        names, sealed = self._names, self._listed_sealed
        for name in names:
            if name in self._sealed:
                continue
            try:
                size = os.stat(self._log / name).st_size
            except OSError:
                continue
            done = self._scanned.get(name)
            if done is None and name in sealed and self._load(name, size):
                self._sealed.add(name)
                continue
            if size < (done or 0):  # rewritten: index it afresh
                self._forget({name})
                done = 0
            if size > (done or 0):
                self._scan(name, done or 0)
            if name in sealed:  # listed sealed before its size was read
                self._sealed.add(name)
        return names

    def _load(self, name: str, size: int) -> bool:
        """Index a sealed segment from its index file; ``False`` when
        that file is unreadable or does not match the segment."""
        try:
            with open(self._log / (name[:-6] + ".idx"), "rb") as fh:
                data = fh.read()
            if not (data[-1:] == b"\n" and crc_ok(data, 0, len(data) - 1)):
                return False
            sealed = json.loads(data)
            if sealed["size"] != size:
                return False
            entries = zip(sealed["keys"], zip(
                itertools.repeat(name), sealed["at"], sealed["len"],
                sealed["rec"],
            ))
        except (OSError, ValueError, KeyError, TypeError):
            return False
        self._index.update(entries)
        self._scanned[name] = size
        return True

    def _scan(self, name: str, start: int) -> None:
        """Stream a segment from ``start``; a segment known to hold a
        damaged line has every line's CRC checked."""
        scanned, path = start, self._log / name
        try:
            verify = name in self._marked
            for offset, length, entry in scan_segment(path, start, verify):
                scanned = offset + length
                if entry is None:
                    self._damage(name, offset, length, "CRC mismatch")
                elif entry:
                    self._index[entry[0]] = (name, offset, length, entry[1])
        except OSError:
            pass
        self._scanned[name] = scanned

    def _forget(self, names: Set[str]) -> None:
        """Drop segments from the index (unlinked or rewritten)."""
        if not names:
            return
        for name in names:
            fd = self._readers.pop(name, None)
            if fd is not None:
                _close_quietly(fd)
            self._scanned.pop(name, None)
            self._sealed.discard(name)
            self._bad.pop(name, None)
        for key in [k for k, loc in self._index.items() if loc[0] in names]:
            del self._index[key]

    def _damage(self, name: str, offset: int, length: int, why: str) -> None:
        """Count a damaged line and mark its segment (its index file
        becomes ``<stem>.bad``), so that every later reader streams it,
        checking each line's CRC, and counts the damage too."""
        bad = self._bad.setdefault(name, {})
        if offset in bad:
            return
        bad[offset] = length
        self.stats.corruptions += count_damage(self._log / name, offset, why)
        self._mark(name)

    def _mark(self, name: str) -> None:
        self._sealed.discard(name)  # no longer the budget's to drop
        if name in self._marked:
            return
        self._marked.add(name)
        path = self._log / name
        with contextlib.suppress(OSError):
            try:
                os.replace(index_path(path), path.with_suffix(".bad"))
            except FileNotFoundError:
                flags = os.O_WRONLY | os.O_CREAT | os.O_CLOEXEC
                os.close(os.open(path.with_suffix(".bad"), flags, 0o600))

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key not in self._index:
                self._refresh()
            return key in self._index

    def entry_count(self) -> int:
        """Keys with a live cacheable line in the log."""
        with self._lock:
            self._refresh()
            return len(self._index)

    def close(self) -> None:
        """Seal this store's own segment and release the read
        descriptors (they reopen on demand)."""
        if self._own is not None:
            self._own.seal()
            self._own = None
        self._release()

    def _release(self) -> None:
        for fd in getattr(self, "_readers", {}).values():
            _close_quietly(fd)
        self._readers = {}

    __del__ = _release

    def put(self, key: str, record: Dict[str, object]) -> None:
        """Append ``record`` under ``key``; a storage failure (or a
        record JSON cannot encode) means "not cached", never a raise."""
        try:
            data = json.dumps(record).encode()
        except (TypeError, ValueError):
            return
        self.append_done(self._writer(), key, data, {})

    def append_done(
        self, writer: SegmentWriter, key: str, record: bytes, extra
    ) -> None:
        """Append the cacheable ``done`` line of an encoded record
        through ``writer``, a segment of this log."""
        line = encode_done(key, record, True, extra)
        if _corruption_planned(key):
            line = line[:-3] + b"#" + line[-2:]
        if not writer.append(line):
            return
        with self._lock:
            self.stats.stores += 1
            self.enforce_budget()

    def _writer(self) -> SegmentWriter:
        with self._lock:
            if self._attached is None and self._own is None:
                self._own = SegmentWriter(self.root, new_run_id())
            return self._attached or self._own

    def attach(self, writer: SegmentWriter) -> None:
        """``put`` and compaction append to ``writer``'s segment (a
        run's journal) until :meth:`detach`."""
        with self._lock:
            self._attached = writer

    def detach(self, writer: SegmentWriter) -> None:
        with self._lock:
            if self._attached is writer:
                self._attached = None

    def _compact(
        self, drop: List[str], carry: Optional[Set[str]] = None
    ) -> List[pathlib.Path]:
        """Copy the live cacheable entries of the ``drop`` segments (only
        the keys in ``carry``, which forgets them, when given) into the
        writer's segment, then unlink the segments.  One holding a
        damaged or torn line is kept whole, as quarantine evidence.
        Returns the unlinked paths."""
        with self._lock:
            self._refresh()
            writer = self._writer()
            if writer.path.name in drop:
                writer.rotate()  # before reading it: no line in flight
            doomed = set()
            for name in drop:
                try:
                    bad = [
                        (o, e + w - a)
                        for o, buf, a, e, w in segment_lines(self._log / name)
                        if not w or not crc_ok(buf, a, e)
                    ]
                except OSError:
                    continue
                for offset, length in bad:
                    self._damage(name, offset, length, "CRC mismatch")
                if not bad:
                    doomed.add(name)
            entries: Dict[str, list] = {name: [] for name in doomed}
            for key, loc in self._index.items():
                if loc[0] in doomed:
                    entries[loc[0]].append((key, loc))
            removed = []
            for name in sorted(doomed):
                moved, keys = [], []
                for key, (_, offset, length, size) in entries[name]:
                    if carry is not None and key not in carry:
                        continue
                    data = self._pread(name, offset, length)
                    if data and _record_at(data, key, size) is not None:
                        moved.append(data)
                        keys.append(key)
                if moved and not writer.append(b"".join(moved)):
                    break  # nowhere to carry them: drop no more
                if carry is not None:
                    carry.difference_update(keys)
                path = self._log / name
                try:
                    size = path.stat().st_size
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(index_path(path))
                    path.unlink()
                except OSError:
                    continue
                removed.append(path)
                self.stats.evictions += len(entries[name]) - len(keys)
                self.stats.evicted_bytes += size
            self._forget({path.name for path in removed})
            self._refresh()
            return removed

    def prune(
        self,
        keep: Optional[int] = None,
        older_than_s: Optional[float] = None,
        exclude=(),
    ) -> List[pathlib.Path]:
        """Drop the segments outside the newest ``keep`` or older
        (mtime) than ``older_than_s`` seconds, except the runs in
        ``exclude``, carrying their live cacheable entries over.  With
        no policy nothing is touched: resume state is never
        surprise-deleted."""
        if keep is None and older_than_s is None:
            return []
        if keep is not None and keep < 0:
            raise ValueError("keep must be >= 0")
        drop, now = [], time.time()
        for index, path in enumerate(list_journals(self.root)):
            if path.stem.split(".")[0] in exclude:
                continue
            stale = keep is not None and index >= keep
            if not stale and older_than_s is not None:
                try:
                    stale = now - path.stat().st_mtime > older_than_s
                except OSError:
                    continue
            if stale:
                drop.append(path.name)
        return self._compact(drop) if drop else []

    def _sizes(self, names: List[str]) -> Dict[str, os.stat_result]:
        stats = {}
        for name in names:
            with contextlib.suppress(OSError):
                stats[name] = os.stat(self._log / name)
        return stats

    def enforce_budget(self) -> int:
        """Drop the oldest segments (by mtime) until usage fits the
        budget, carrying over the entries this process has hit since
        they were last carried; returns the entries evicted.  Only
        sealed segments and this store's own live one (sealed whenever
        it passes a quarter of the budget) are dropped: never a live
        run's resume state, another process's live segment or a killed
        run's (``prune`` removes those).  Segments holding a damaged
        line survive; if they bust the budget, that is reported, not
        resolved."""
        if self.budget_mb is None:
            return 0
        budget = self.budget_mb * 1e6
        with self._lock:
            before = self.stats.evictions
            writer = self._attached or self._own
            pinned = writer.run_id if writer and writer.resumable else None
            mine = writer.path.name if writer and not pinned else None
            segments = self._sizes(self._refresh())
            if mine in segments and segments[mine].st_size > budget / 4:
                writer.seal()  # budget-sized pieces: the oldest go first
                segments = self._sizes(self._refresh())
            usage = sum(s.st_size for s in segments.values())
            for name in sorted(segments, key=lambda n: segments[n].st_mtime):
                if usage <= budget:
                    break
                if name.split(".")[0] == pinned or not (
                    name in self._sealed or name == mine
                ):
                    continue
                if self._compact([name], self._hit):
                    segments = self._sizes(self._refresh())
                    usage = sum(s.st_size for s in segments.values())
            self.stats.quarantine_kept = len(self._bad)
            if usage > budget and self._bad and not self._quarantine_warned:
                self._quarantine_warned = True
                warnings.warn(
                    f"repro: result store exceeds its budget but what is "
                    f"left holds quarantined damaged lines, which are "
                    f"never deleted automatically; inspect and delete "
                    f"them under {self._log}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return self.stats.evictions - before

    _quarantine_warned = False

    def occupancy(self) -> Dict[str, object]:
        """Entries, bytes, quarantine and budget accounting."""
        with self._lock:
            segments = self._sizes(self._refresh())
            bad = [n for lines in self._bad.values() for n in lines.values()]
            return {
                "entries": len(self._index),
                "segments": len(segments),
                "bytes": sum(s.st_size for s in segments.values()),
                "quarantined": len(bad),
                "quarantined_bytes": sum(bad),
                "budget_mb": self.budget_mb,
                "evictions": self.stats.evictions,
                "evicted_bytes": self.stats.evicted_bytes,
            }


def _corruption_planned(key: str) -> bool:
    """Chaos hook: ``$REPRO_FAULTS`` armed with ``corrupt_cache`` has
    the store damage the record it stores for ``key`` (its closing
    brace), so the next lookup exercises the quarantine path.  Free
    when the harness is off (one cached env check)."""
    from .faults import active_plan

    plan = active_plan()
    return plan is not None and plan.should("corrupt_cache", key)
