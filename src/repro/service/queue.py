"""The service's scheduler: a priority job queue over one persistent
worker pool.

One :class:`JobQueue` owns one :class:`~repro.batch.cache.ResultStore`
and one :class:`~repro.batch.engine.JobExecutor` — the batch engine's
dispatch loop, kept for the service's lifetime.  Whenever a pool worker
is free the executor takes the most urgent queued job, so every service
job compiles in a worker *process* under its own ``job_timeout_s``
watchdog and retry budget, with the engine's deterministic fault
injection: a crashing compilation surfaces as a terminal
``error``/``timeout`` record instead of taking the service down.  The
server process itself only parses requests and deduplicates; the
executor records every job, as it does for the batch engine.

Deduplication
-------------
The unit of identity is the job content hash
(:meth:`repro.batch.jobs.CompileJob.key` — spec + options + process +
schema version).  A submit whose hash is already *queued or running*
attaches to the existing job (same job id back, ``coalesced`` count
bumped) instead of compiling twice; a submit whose hash is already in
the store returns a finished job immediately (a cache hit).  That is
the service-level guarantee behind "never recompile a hash twice", and
``stats()['compiled']`` is the proof.

Statuses
--------
``queued`` → ``running`` → one of the engine's terminal statuses
(``ok`` / ``infeasible`` / ``error`` / ``timeout``), plus
``cancelled`` for jobs removed from the queue before they started.
Terminal records are appended to the service's write-ahead
:class:`~repro.batch.resilience.SweepJournal` — its segment of the
result log for the service's lifetime, whose cacheable ``done`` lines
are the store's entries — and sweep completion prunes old segments so
a long-lived service does not accumulate one per historical run.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

from ..errors import (
    ServiceError,
    ShuttingDownError,
    UnknownJobError,
)
from ..options import CompileOptions
from ..spec import MacroSpec
from ..batch.cache import MemoryResultStore, ResultCache, ResultStore, new_run_id
from ..batch.engine import JobExecutor, Ticket
from ..batch.jobs import CompileJob
from ..batch.resilience import SweepJournal

#: Statuses a job can report; the first two are live, the rest terminal.
QUEUED = "queued"
RUNNING = "running"
CANCELLED = "cancelled"
TERMINAL_STATUSES = ("ok", "infeasible", "error", "timeout", CANCELLED)


def _new_id(prefix: str) -> str:
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


@dataclass
class _JobEntry:
    """Internal per-job state (snapshot through :meth:`JobQueue.job`).

    Wall-clock timestamps (``submitted``/``started``/``finished``) are
    *display metadata only* — an NTP step moves them arbitrarily.  All
    interval math runs on the parallel ``*_mono`` readings from
    :func:`time.monotonic`, which is what the ``queued_s``/``run_s``
    fields in snapshots are computed from.
    """

    id: str
    key: str
    job: CompileJob
    priority: int
    status: str = QUEUED
    record: Optional[Dict[str, object]] = None
    submitted: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    submitted_mono: float = field(default_factory=time.monotonic)
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    cached: bool = False
    #: Later submits that attached to this job instead of recompiling.
    coalesced: int = 0
    done: threading.Event = field(default_factory=threading.Event)

    def mark_started(self) -> None:
        self.started = time.time()
        self.started_mono = time.monotonic()

    def mark_finished(self) -> None:
        self.finished = time.time()
        self.finished_mono = time.monotonic()

    def snapshot(self) -> Dict[str, object]:
        now = time.monotonic()
        started = self.started_mono
        queued_end = started if started is not None else now
        run_s: Optional[float] = None
        if started is not None:
            run_end = (
                self.finished_mono if self.finished_mono is not None else now
            )
            run_s = round(run_end - started, 6)
        return {
            "id": self.id,
            "key": self.key,
            "status": self.status,
            "priority": self.priority,
            "spec_summary": self.job.spec.describe(),
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "queued_s": round(queued_end - self.submitted_mono, 6),
            "run_s": run_s,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "record": self.record if self.status in TERMINAL_STATUSES else None,
        }


@dataclass
class _SweepEntry:
    id: str
    job_ids: List[str]
    keys: List[str]
    pending: Set[str]
    submitted: float = field(default_factory=time.time)
    finished: Optional[float] = None
    # Monotonic twins of the wall timestamps above (interval math only).
    submitted_mono: float = field(default_factory=time.monotonic)
    finished_mono: Optional[float] = None


class JobQueue:
    """Priority scheduler + result store + journal for the service.

    Parameters
    ----------
    options:
        Default :class:`~repro.options.CompileOptions` applied to
        submissions that do not carry their own.
    cache_dir / use_cache:
        Result storage: a :class:`ResultCache` under ``cache_dir``
        (default cache root), or — with ``use_cache=False`` — a
        process-local :class:`MemoryResultStore` (dedup and fetches
        still work, but nothing survives restarts).
    workers:
        Processes in the one compile pool (= jobs compiling
        concurrently).  Default ``min(4, cpu)``.  The workers start
        with the first job that misses the store, not at construction.
    journal / journal_keep:
        The service journals terminal records under its run id
        (``journal=False`` disables); completed sweeps prune the log
        down to the newest ``journal_keep`` segments, carrying their
        live entries into the service's own.
    """

    def __init__(
        self,
        options: Optional[CompileOptions] = None,
        cache_dir: Optional[os.PathLike] = None,
        use_cache: bool = True,
        workers: Optional[int] = None,
        journal: bool = True,
        journal_keep: int = 32,
        start: bool = True,
    ) -> None:
        self.options = options if options is not None else CompileOptions()
        self.store: ResultStore = (
            ResultCache(cache_dir) if use_cache else MemoryResultStore()
        )
        self.workers = max(
            1, workers if workers is not None else min(4, os.cpu_count() or 1)
        )
        self.journal_keep = max(0, journal_keep)
        self.run_id = new_run_id()
        #: Wall-clock start (display only; see :meth:`stats`).
        self.started_at = time.time()
        #: Monotonic start — the uptime reference, immune to NTP steps.
        self._started_mono = time.monotonic()
        self._journal: Optional[SweepJournal] = (
            SweepJournal(
                self.store.root, run_id=self.run_id, store=self.store,
                resumable=False,
            )
            if journal and isinstance(self.store, ResultCache)
            else None
        )
        self._lock = threading.RLock()
        self._heap: List[tuple] = []
        self._tick = itertools.count()
        self._jobs: Dict[str, _JobEntry] = {}
        self._by_key: Dict[str, _JobEntry] = {}
        self._sweeps: Dict[str, _SweepEntry] = {}
        self._stopping = False
        self._executor = JobExecutor(
            self.workers, feed=self._next_ticket, store=self.store,
            journal=self._journal,
        )
        #: Service-lifetime work accounting (see :meth:`stats`); the
        #: executor counts hits, compiles and retries.
        self._counters = {"submitted": 0, "coalesced": 0, "cancelled": 0}
        if start:
            self.start()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start dispatching queued jobs to the pool."""
        with self._lock:
            if self._stopping:
                return
        self._executor.start()

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, cancel everything still queued, give
        running jobs up to ``timeout`` seconds to land, then shut the
        pool down (killing what still runs), reap its workers and close
        the journal."""
        with self._lock:
            self._stopping = True
            for entry in self._jobs.values():
                if entry.status == QUEUED:
                    self._finish(entry, CANCELLED, record=None)
        self._executor.close(timeout)
        if self._journal is not None:
            self._journal.seal()
            self._journal.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        spec: MacroSpec,
        options: Optional[CompileOptions] = None,
        priority: int = 0,
    ) -> Dict[str, object]:
        """Accept one spec; returns the job snapshot (possibly already
        terminal on a store hit, possibly an existing in-flight job on
        a hash collision — that is the dedup working)."""
        opts = options if options is not None else self.options
        job = opts.compile_job(spec)
        key = job.key()
        with self._lock:
            if self._stopping:
                raise ShuttingDownError("service is shutting down")
            self._counters["submitted"] += 1
            existing = self._by_key.get(key)
            if existing is not None and existing.status in (QUEUED, RUNNING):
                existing.coalesced += 1
                self._counters["coalesced"] += 1
                if priority < existing.priority and existing.status == QUEUED:
                    # A more urgent duplicate promotes the shared job.
                    existing.priority = priority
                    heapq.heappush(
                        self._heap,
                        (priority, next(self._tick), existing.id),
                    )
                return existing.snapshot()
            entry = _JobEntry(
                id=_new_id("job"),
                key=key,
                job=job,
                priority=priority,
            )
            self._jobs[entry.id] = entry
            self._by_key[key] = entry
            cached = self._executor.lookup(key)
            if cached is not None:
                # A store hit is finished the moment it is submitted.
                entry.status = str(cached.get("status", "ok"))
                entry.record, entry.cached = cached, True
                entry.started = entry.finished = entry.submitted
                entry.started_mono = entry.finished_mono = entry.submitted_mono
                entry.done.set()
                return entry.snapshot()
            heapq.heappush(
                self._heap, (priority, next(self._tick), entry.id)
            )
            if self._journal is not None:
                self._journal.submit([key])
            self._executor.wake()
            return entry.snapshot()

    def submit_sweep(
        self,
        axes: Mapping[str, Sequence[str]],
        options: Optional[CompileOptions] = None,
        ppa: str = "balanced",
        priority: int = 0,
    ) -> Dict[str, object]:
        """Expand the CLI's range grammar server-side and submit every
        grid point; returns the sweep snapshot (id + per-point job ids
        and content hashes).  Duplicate points — within the sweep or
        against other clients' in-flight work — coalesce exactly like
        :meth:`submit` singles."""
        from ..batch.sweep import expand_axes

        specs = expand_axes(axes, ppa)
        snapshots = [
            self.submit(spec, options=options, priority=priority)
            for spec in specs
        ]
        with self._lock:
            job_ids = [str(s["id"]) for s in snapshots]
            sweep = _SweepEntry(
                id=_new_id("sweep"),
                job_ids=job_ids,
                keys=[str(s["key"]) for s in snapshots],
                # Membership is judged against *current* statuses under
                # the lock — a point that landed between its submit and
                # this registration must not pin the sweep open forever.
                pending={
                    job_id
                    for job_id in job_ids
                    if self._jobs[job_id].status not in TERMINAL_STATUSES
                },
            )
            self._sweeps[sweep.id] = sweep
            if not sweep.pending:
                self._complete_sweep(sweep)
            return self._sweep_snapshot(sweep)

    # -- inspection ---------------------------------------------------------

    def job(self, job_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            entry = self._jobs.get(job_id)
            return None if entry is None else entry.snapshot()

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """Block until the job is terminal; raises
        :class:`~repro.errors.ServiceError` on timeout
        (:class:`~repro.errors.UnknownJobError` on an unknown id)."""
        with self._lock:
            entry = self._jobs.get(job_id)
        if entry is None:
            raise UnknownJobError(f"unknown job id {job_id!r}")
        if not entry.done.wait(timeout):
            raise ServiceError(
                f"job {job_id} not terminal after {timeout:g}s"
            )
        with self._lock:
            return entry.snapshot()

    def result(self, key: str) -> Optional[Dict[str, object]]:
        """Store lookup by content hash — never compiles."""
        return self.store.get(key)

    def sweep(self, sweep_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            sweep = self._sweeps.get(sweep_id)
            return None if sweep is None else self._sweep_snapshot(sweep)

    def stats(self) -> Dict[str, object]:
        """Queue depths, lifetime work counters, the pool's
        ``executor`` counters and store occupancy — the body of
        ``GET /v1/stats``."""
        with self._lock:
            by_status: Dict[str, int] = {}
            for entry in self._jobs.values():
                by_status[entry.status] = by_status.get(entry.status, 0) + 1
            counters = dict(self._counters, **self._executor.counts)
            sweeps = {
                "total": len(self._sweeps),
                "done": sum(
                    1 for s in self._sweeps.values() if s.finished is not None
                ),
            }
        return {
            "run_id": self.run_id,
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "workers": self.workers,
            "jobs": by_status,
            "sweeps": sweeps,
            **counters,
            "executor": self._executor.stats(),
            "store": self.store.occupancy(),
        }

    # -- cancellation -------------------------------------------------------

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Cancel a *queued* job.  Running jobs are not interrupted
        (their worker owns them until a terminal record lands) and
        terminal jobs are already history; both report
        ``cancelled=False`` with the current status."""
        with self._lock:
            entry = self._jobs.get(job_id)
            if entry is None:
                raise UnknownJobError(f"unknown job id {job_id!r}")
            if entry.status != QUEUED:
                return {"cancelled": False, **entry.snapshot()}
            self._finish(entry, CANCELLED, record=None)
            self._counters["cancelled"] += 1
            return {"cancelled": True, **entry.snapshot()}

    # -- execution ----------------------------------------------------------

    def _pop_locked(self) -> Optional[_JobEntry]:
        while self._heap:
            _priority, _tick, job_id = heapq.heappop(self._heap)
            entry = self._jobs.get(job_id)
            # Skip cancelled entries and stale heap duplicates left by
            # priority promotion.
            if entry is not None and entry.status == QUEUED:
                return entry
        return None

    def _next_ticket(self) -> Optional[Ticket]:
        """The executor's feed, called when a pool worker is free: the
        most urgent queued job starts now."""
        with self._lock:
            entry = self._pop_locked()
            if entry is None:
                return None
            entry.status = RUNNING
            entry.mark_started()
        return Ticket(entry.key, entry.job, functools.partial(self._landed, entry))

    def _landed(self, entry: _JobEntry, ticket: Ticket) -> None:
        """The executor's verdict on ``entry``, already journaled,
        stored and counted: land the terminal record."""
        with self._lock:
            if entry.status == RUNNING:
                status = str(ticket.record.get("status", "error"))
                self._finish(entry, status, ticket.record)

    def _finish(
        self,
        entry: _JobEntry,
        status: str,
        record: Optional[Dict[str, object]],
    ) -> None:
        """Caller holds the lock.  Lands a terminal status, wakes
        waiters and settles any sweeps the job belonged to."""
        entry.status = status
        entry.mark_finished()
        if record is not None:
            entry.record = record
        entry.done.set()
        for sweep in self._sweeps.values():
            if entry.id in sweep.pending:
                sweep.pending.discard(entry.id)
                if not sweep.pending:
                    self._complete_sweep(sweep)

    def _complete_sweep(self, sweep: _SweepEntry) -> None:
        """Caller holds the lock: stamp completion and prune old log
        segments (keeping this service's own alive; their live entries
        move into it)."""
        sweep.finished = time.time()
        sweep.finished_mono = time.monotonic()
        if self._journal is not None and self.journal_keep:
            self.store.prune(keep=self.journal_keep, exclude=(self.run_id,))

    def _sweep_snapshot(self, sweep: _SweepEntry) -> Dict[str, object]:
        counts: Dict[str, int] = {}
        for job_id in sweep.job_ids:
            entry = self._jobs.get(job_id)
            status = entry.status if entry is not None else "unknown"
            counts[status] = counts.get(status, 0) + 1
        return {
            "id": sweep.id,
            "points": len(sweep.job_ids),
            "jobs": list(sweep.job_ids),
            "keys": list(sweep.keys),
            "counts": counts,
            "done": sweep.finished is not None,
            "submitted": sweep.submitted,
            "finished": sweep.finished,
            "elapsed_s": round(
                (
                    sweep.finished_mono
                    if sweep.finished_mono is not None
                    else time.monotonic()
                )
                - sweep.submitted_mono,
                6,
            ),
        }
