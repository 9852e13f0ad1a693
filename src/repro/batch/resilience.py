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
:class:`SweepJournal` appends one JSONL line per event under
``<cache root>/journal/<run id>.jsonl``:

* ``{"event": "begin", "run": ..., "total": N, "unique": M}`` once per
  :meth:`~repro.batch.engine.BatchCompiler.run_jobs` call;
* ``{"event": "submit", "key": ...}`` for every job key about to
  execute (the write-ahead half: a killed run knows what it owed);
* ``{"event": "done", "key": ..., "record": {...}}`` for every
  terminal record (the completion half: a killed run knows what it
  finished — including the ``error``/``timeout`` records the result
  cache deliberately refuses to store).

``BatchCompiler(resume=<run id>)`` / ``--resume <run id>`` loads the
``done`` map and re-executes only the unfinished remainder; resumed
records are stamped ``resumed=True`` and counted in
``BatchStats.resumed``.  Journal writes degrade silently (a full disk
must never abort the sweep it was protecting); loads of an unknown run
id raise :class:`~repro.errors.BatchError`.

See ``docs/robustness.md`` for the full semantics table.
"""

from __future__ import annotations

import json
import pathlib
import random
import time
import uuid
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, TextIO

from ..errors import BatchError

#: Statuses a worker-produced record can carry — all deterministic,
#: none retried (see module docstring).
DETERMINISTIC_STATUSES = ("ok", "infeasible", "error")

#: Pool-level failure classes the engine retries (the record never
#: came back, so there is no status yet): a broken pool, a watchdog
#: kill, a single future raising with the pool alive.
TRANSIENT_FAILURES = ("pool-break", "timeout", "worker-raise")

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


def new_run_id() -> str:
    """Sortable-by-start-time, collision-safe run identifier."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


def journal_dir(root: pathlib.Path) -> pathlib.Path:
    return pathlib.Path(root).expanduser() / "journal"


def list_journals(root: pathlib.Path) -> List[pathlib.Path]:
    """Journal files under ``root``, newest first (by mtime, run-id
    tiebreak — run ids sort by start time)."""
    directory = journal_dir(root)
    if not directory.is_dir():
        return []
    files = [p for p in directory.glob("*.jsonl") if p.is_file()]

    def sort_key(path: pathlib.Path):
        try:
            mtime = path.stat().st_mtime
        except OSError:
            mtime = 0.0
        return (mtime, path.stem)

    return sorted(files, key=sort_key, reverse=True)


def prune_journals(
    root: pathlib.Path,
    keep: Optional[int] = None,
    older_than_s: Optional[float] = None,
    exclude: Iterable[str] = (),
) -> List[pathlib.Path]:
    """Delete old journal files; returns the paths removed.

    Every sweep leaves one JSONL behind, so a long-lived service (or a
    busy workstation) accumulates them forever without this.  A file is
    pruned when it falls outside the newest ``keep`` *or* its mtime is
    older than ``older_than_s`` seconds; with both ``None`` nothing is
    touched (an explicit retention policy is required — this function
    must never surprise-delete resume state).  Run ids in ``exclude``
    are always kept, so a live run can prune around its own journal.
    Unlink failures are skipped, not raised: pruning is housekeeping,
    never worth aborting the sweep that triggered it.
    """
    if keep is None and older_than_s is None:
        return []
    if keep is not None and keep < 0:
        raise ValueError("keep must be >= 0")
    excluded = set(exclude)
    now = time.time()
    removed: List[pathlib.Path] = []
    for index, path in enumerate(list_journals(root)):
        if path.stem in excluded:
            continue
        stale = keep is not None and index >= keep
        if not stale and older_than_s is not None:
            try:
                stale = now - path.stat().st_mtime > older_than_s
            except OSError:
                continue
        if not stale:
            continue
        try:
            path.unlink()
        except OSError:
            continue
        removed.append(path)
    return removed


class SweepJournal:
    """Append-only JSONL write-ahead journal for one batch run (see
    module docstring for the line schema).

    Lines are flushed as written, so a ``kill -9`` loses at most the
    record in flight; :meth:`load` tolerates a torn final line.  Any
    filesystem refusal disables the journal for the rest of the run —
    resumability degrades, the sweep itself never aborts.
    """

    def __init__(
        self, root: pathlib.Path, run_id: Optional[str] = None
    ) -> None:
        self.run_id = run_id or new_run_id()
        self.path = journal_dir(root) / f"{self.run_id}.jsonl"
        self._fh: Optional[TextIO] = None
        self._disabled = False

    # -- writing ------------------------------------------------------------

    def _write(self, obj: Dict[str, object]) -> None:
        if self._disabled:
            return
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(json.dumps(obj) + "\n")
            self._fh.flush()
        except (OSError, TypeError, ValueError):
            self._disabled = True
            self.close()

    def begin(self, total: int, unique: int) -> None:
        self._write(
            {
                "event": "begin",
                "run": self.run_id,
                "time": time.time(),
                "total": total,
                "unique": unique,
            }
        )

    def submit(self, keys: Iterable[str]) -> None:
        for key in keys:
            self._write({"event": "submit", "key": key})

    def done(self, key: str, record: Dict[str, object]) -> None:
        self._write({"event": "done", "key": key, "record": record})

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    # -- reading ------------------------------------------------------------

    @staticmethod
    def load(
        root: pathlib.Path, run_id: str
    ) -> Dict[str, Dict[str, object]]:
        """The ``key -> terminal record`` map of a previous run.

        Unparsable lines (a torn tail from a kill) are skipped; an
        unknown run id raises :class:`~repro.errors.BatchError` so a
        typo'd ``--resume`` fails loudly instead of silently
        recompiling everything.
        """
        path = journal_dir(root) / f"{run_id}.jsonl"
        if not path.is_file():
            raise BatchError(
                f"unknown run id {run_id!r}: no journal at {path}"
            )
        records: Dict[str, Dict[str, object]] = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue  # torn final line from a kill
                    if (
                        isinstance(entry, dict)
                        and entry.get("event") == "done"
                        and isinstance(entry.get("record"), dict)
                        and isinstance(entry.get("key"), str)
                    ):
                        records[entry["key"]] = entry["record"]
        except OSError as exc:
            raise BatchError(
                f"cannot read journal for run {run_id!r}: {exc}"
            ) from exc
        return records
