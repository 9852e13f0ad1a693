"""Resilience layer for the batch engine: failure taxonomy, retry
policy and the crash-safe write-ahead journal.

The engine's contract is that a sweep always terminates with one
*terminal* record per requested point — ``ok`` / ``infeasible`` /
``error`` / ``timeout`` — no matter what the workers do.  This module
holds the three pieces that make that true (the fourth, fault
injection, lives in :mod:`repro.batch.faults`):

Failure taxonomy
----------------
*Deterministic* failures are properties of the job itself: an
infeasible spec, a compile error raised inside the worker and mapped
to a record.  Re-running them reproduces them, so they are **never
retried** (and ``infeasible`` is even cached).

*Transient* failures are properties of the environment: a worker
process dying (OOM kill, segfault, injected crash — the parent reads
EOF on that worker's pipe), a watchdog timeout, a job function that
raised with its worker still alive.  The parent knows which job each
worker holds, so every such failure is charged to exactly that job.
The job itself might be fine, so these are **retried** under its
options' :class:`RetryPolicy` (exponential backoff), and only after the
budget is exhausted do they become terminal ``error``/``timeout``
records carrying ``attempts`` and ``retry_history``.

Write-ahead journal
-------------------
:class:`SweepJournal` writes one run's segment of the result log,
``<cache root>/log/<run id>.jsonl`` (line format:
:mod:`repro.batch.cache`):

* ``{"event": "begin", "run": ..., "total": N, "unique": M}`` once per
  :meth:`~repro.batch.engine.BatchCompiler.run_jobs` call;
* ``{"event": "submit", "keys": [...]}`` with the job keys about to
  execute (the write-ahead half: a killed run knows what it owed);
* ``{"event": "done", "key": ..., "record": {...}}`` for every
  terminal record (the completion half: a killed run knows what it
  finished — including the ``error``/``timeout`` records the store
  deliberately refuses to serve), with ``attempts``/``retry_history``
  beside the record when it was retried.

``BatchCompiler(resume=<run id>)`` / ``--resume <run id>`` loads the
``done`` map and re-executes only the unfinished remainder, appending
to the same run's log; resumed records are stamped ``resumed=True`` and
counted in ``BatchStats.resumed``.  A run that completes seals its
segment.  Journal writes degrade silently (a full disk must never
abort the sweep it was protecting); loads of an unknown run id raise
:class:`~repro.errors.BatchError`.

See ``docs/robustness.md`` for the full semantics table.
"""

from __future__ import annotations

import json
import pathlib
import random
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..errors import BatchError
from .cache import (
    BOOKKEEPING,
    ResultCache,
    SegmentWriter,
    count_damage,
    crc_ok,
    encode_done,
    encode_line,
    list_journals,
    log_dir,
    new_run_id,
    segment_lines,
)

#: Terminal statuses a finished batch may contain.  ``timeout`` is the
#: only parent-synthesized status that survives a full retry budget.
TERMINAL_STATUSES = ("ok", "infeasible", "error", "timeout")


@dataclass(frozen=True)
class RetryPolicy:
    """Transient-failure budget: at most ``max_attempts`` tries per
    job, sleeping ``backoff_s * 2**(attempt-1)`` (scaled up to
    ``1 + jitter`` at random) between rounds.  Jobs run under
    :meth:`repro.options.CompileOptions.retry_policy`; this class's own
    defaults (one retry, no sleep) are used by no job."""

    max_attempts: int = 2
    backoff_s: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.jitter < 0:
            raise ValueError("backoff_s and jitter must be >= 0")

    def delay(self, attempt: int) -> float:
        """Sleep before re-running a job whose ``attempt``-th try
        failed transiently."""
        base = self.backoff_s * (2 ** max(0, attempt - 1))
        if base and self.jitter:
            base *= 1.0 + random.random() * self.jitter
        return base


class SweepJournal(SegmentWriter):
    """One run's write-ahead journal: its segment of the result log
    under ``root``.  ``store`` is the
    :class:`~repro.batch.cache.ResultCache` reading this same log, or
    ``None``: a cacheable ``done`` line *is* its store entry, so each
    record is encoded and written once (without a store, no line is
    cacheable).  Lines are written as they happen, so a ``kill -9``
    loses at most the record in flight.  ``resumable=False`` (a service
    lifetime, which nothing resumes) lets the store's size budget drop
    the live segment."""

    def __init__(
        self,
        root: pathlib.Path,
        run_id: Optional[str] = None,
        store: Optional[ResultCache] = None,
        resumable: bool = True,
    ) -> None:
        super().__init__(root, run_id or new_run_id())
        self.resumable = resumable
        self._log = store
        if store is not None:
            store.attach(self)

    def _write(self, fields: Dict[str, object]) -> None:
        self.append(encode_line(json.dumps(fields)[1:].encode()))

    def begin(self, total: int, unique: int) -> None:
        self._write({"event": "begin", "run": self.run_id,
                     "time": time.time(), "total": total, "unique": unique})

    def submit(self, keys: Iterable[str]) -> None:
        keys = list(keys)
        if keys:
            self._write({"event": "submit", "keys": keys})

    def done(
        self, key: str, record: Dict[str, object], cacheable: bool = False
    ) -> None:
        """Log ``key``'s terminal ``record`` (its retry bookkeeping goes
        beside it); ``cacheable`` also stores it."""
        extra = {k: record[k] for k in BOOKKEEPING if k in record}
        if extra:
            record = {k: v for k, v in record.items() if k not in extra}
        try:
            data = json.dumps(record).encode()
        except (TypeError, ValueError):
            return
        if cacheable and self._log is not None:
            self._log.append_done(self, key, data, extra)
        else:
            self.append(encode_done(key, data, False, extra))

    def close(self) -> None:
        super().close()
        if self._log is not None:
            self._log.detach(self)

    @staticmethod
    def load(root: pathlib.Path, run_id: str) -> Dict[str, Dict[str, object]]:
        """The ``key -> terminal record`` map of a previous run, retry
        bookkeeping re-attached.  A damaged or torn line (a kill
        mid-write) is skipped and counted; an unknown run id raises
        :class:`~repro.errors.BatchError`, so a typo'd ``--resume``
        fails loudly instead of silently recompiling everything."""
        paths = sorted(  # <run id>.jsonl, then <run id>.<n>.jsonl
            (p for p in list_journals(root) if p.stem.split(".")[0] == run_id),
            key=lambda p: (len(p.stem), p.stem),
        )
        if not paths:
            raise BatchError(
                f"unknown run id {run_id!r}: no segment under {log_dir(root)}"
            )
        records: Dict[str, Dict[str, object]] = {}
        try:
            for path in paths:
                for offset, buf, at, end, whole in segment_lines(path):
                    try:
                        entry = (
                            json.loads(buf[at:end])
                            if whole and crc_ok(buf, at, end)
                            else None
                        )
                    except ValueError:
                        entry = None
                    if not isinstance(entry, dict):
                        count_damage(path, offset, "torn or CRC mismatch")
                    elif entry.get("event") == "done" and isinstance(
                        entry.get("record"), dict
                    ):
                        extra = {
                            k: entry[k] for k in BOOKKEEPING if k in entry
                        }
                        records[str(entry.get("key"))] = dict(
                            entry["record"], **extra
                        )
        except OSError as exc:
            raise BatchError(
                f"cannot read the log of run {run_id!r}: {exc}"
            ) from exc
        return records


def prune_journals(
    root: pathlib.Path,
    keep: Optional[int] = None,
    older_than_s: Optional[float] = None,
    exclude=(),
) -> List[pathlib.Path]:
    """Drop old log segments, carrying their live cacheable entries
    over (:meth:`~repro.batch.cache.ResultCache.prune`); returns the
    paths removed."""
    cache = ResultCache(root)
    try:
        return cache.prune(
            keep=keep, older_than_s=older_than_s, exclude=exclude
        )
    finally:
        cache.close()
