"""The batch compilation engine.

:class:`BatchCompiler` takes many jobs (full compiles of different
specs, each a :class:`~repro.batch.jobs.CompileJob`), deduplicates
identical ones by content hash, satisfies what it can from the
persistent :class:`~repro.batch.cache.ResultCache`, and schedules the
remainder across worker processes.  Workers receive plain-dict
payloads and return plain-dict records (see
:func:`repro.compiler.syndcim.execute_job`), so no live compiler
objects ever cross a process boundary.

Scheduling notes
----------------
* ``jobs=1`` (or a single pending job without a watchdog) runs inline
  in this process — no workers, easier debugging, identical results.
  Watchdog timeouts, retries and fault injection are worker features;
  inline mode trades them for debuggability.
* Every job goes through a :class:`JobExecutor`, the one record path
  (lookups, the journal, the counts): pooled jobs run on worker
  processes it owns, each behind its own duplex pipe, and a dispatch
  loop that also runs the watchdog and the retry loop.  The
  dispatching thread sends each payload straight to an idle worker and
  reads the record straight back; no helper thread relays either.
  :meth:`BatchCompiler.run_jobs` uses one executor per call; the
  compile service (:class:`repro.service.queue.JobQueue`) uses one for
  its lifetime; :meth:`BatchCompiler.map` runs on the same worker
  processes.
* Before its first worker starts, an executor resolves the subcircuit
  library in the parent (persistent disk cache, falling back to one
  characterization); every worker then warms itself from the same
  artifact (:func:`_worker_initializer`), so no worker ever re-runs
  the characterization — under ``fork`` *and* ``spawn`` alike.
* Job failures are *data*: infeasible specs come back as
  ``status="infeasible"`` records (and are cached — they are
  deterministic), unexpected compiler errors as ``status="error"``
  (not cached).  A sweep never dies half way because one grid corner
  cannot meet timing.

Every option a job runs under travels in its
:class:`~repro.options.CompileOptions` (``BatchCompiler(options=...)``):
the flow options go into the job key, the execution policy
(``job_timeout_s``, ``retries``) steers the executor.

Resilience (see :mod:`repro.batch.resilience` and
``docs/robustness.md``)
----------------------------------------------------------------------
* ``options.job_timeout_s`` arms a watchdog: each worker holds at most
  one job (so dispatch = start), each job carries a deadline, and an
  overdue job's worker — that worker alone — is killed and replaced
  rather than hanging the sweep forever.
* Transient failures — a worker that died, a watchdog kill, a job
  function that raised — are charged to exactly the job that worker
  held and retried under ``options.retry_policy()`` (exponential
  backoff); only an exhausted budget yields terminal
  ``error``/``timeout`` records, annotated with ``attempts`` and
  ``retry_history``.  No other job is ever re-run on its account.
* Every run with a cache root keeps a write-ahead
  :class:`~repro.batch.resilience.SweepJournal`: its segment of the
  result log, whose ``done`` lines are also the store's entries;
  ``BatchCompiler(resume=<run id>)`` restores finished records from it
  and executes only the remainder.
* ``$REPRO_FAULTS`` (see :mod:`repro.batch.faults`) deterministically
  crashes, hangs or corrupts on demand, so every path above is an
  ordinary test subject.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import multiprocessing
import os
import pathlib
import signal
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import BatchError
from ..options import CompileOptions
from ..spec import MacroSpec
from .cache import ResultCache, ResultStore, new_run_id
from .faults import active_plan
from .jobs import CompileJob
from .resilience import SweepJournal

Record = Dict[str, object]
#: progress(done, total, record) — called after every job completion.
ProgressFn = Callable[[int, int, Record], None]

#: Longest single wait of the dispatch loop: a far deadline (a long job
#: timeout or retry backoff) only wakes it to look again, and no wait
#: overflows the selector's millisecond timeout.
_MAX_WAIT_S = 60.0


@dataclass
class BatchStats:
    """Work accounting for one batch run."""

    total: int = 0
    unique: int = 0
    cache_hits: int = 0
    compiled: int = 0
    infeasible: int = 0
    failed: int = 0
    #: Jobs whose record is a terminal watchdog timeout.
    timeouts: int = 0
    #: Unique jobs that needed at least one transient-failure retry.
    retried: int = 0
    #: Jobs restored from a previous run's write-ahead journal.
    resumed: int = 0
    #: Worker processes started: ``min(jobs, pending)`` for a pooled
    #: run, plus one per worker death or watchdog kill that left work
    #: to do; 0 when inline.
    worker_spawns: int = 0
    elapsed_s: float = 0.0
    #: Journal identity of this run (``--resume`` takes it); ``None``
    #: when journaling was off.
    run_id: Optional[str] = None

    @property
    def deduplicated(self) -> int:
        return self.total - self.unique

    @property
    def cache_misses(self) -> int:
        return self.unique - self.cache_hits

    def cache_line(self) -> str:
        """The one-line summary every batch CLI run prints; ``compiled
        0`` is the proof that a repeated sweep ran entirely from cache,
        and the recovery clause is the proof of what the resilience
        layer had to absorb."""
        line = (
            f"cache: {self.cache_hits} hits, {self.cache_misses} misses; "
            f"compiled {self.compiled}, folded {self.deduplicated} "
            f"duplicate jobs; elapsed {self.elapsed_s:.1f}s"
        )
        recovery = []
        if self.retried:
            recovery.append(f"retried {self.retried}")
        if self.resumed:
            recovery.append(f"resumed {self.resumed}")
        if self.timeouts:
            recovery.append(f"timeouts {self.timeouts}")
        if recovery:
            line += "; recovery: " + ", ".join(recovery)
        return line


@dataclass
class BatchResult:
    """Records in input-job order plus the run's accounting."""

    records: List[Record]
    stats: BatchStats = field(default_factory=BatchStats)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def describe(self) -> str:
        statuses = [r.get("status") for r in self.records]
        lines = [
            f"batch of {self.stats.total} jobs: "
            f"{statuses.count('ok')} ok, "
            f"{statuses.count('infeasible')} infeasible, "
            f"{statuses.count('error')} failed, "
            f"{statuses.count('timeout')} timed out",
            self.stats.cache_line(),
        ]
        return "\n".join(lines)


class BatchCompiler:
    """Compile many design points with dedup, caching and parallelism.

    Parameters
    ----------
    jobs:
        Worker-process count; ``None`` uses the CPU count, ``1`` runs
        inline.
    cache_dir / use_cache:
        Where the persistent result store lives (default
        ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``); ``use_cache=False``
        disables both lookup and store.
    progress:
        Optional callback invoked after each job resolves.
    resume:
        A previous run's id (``BatchStats.run_id``): finished records
        are restored from its write-ahead journal and only the
        remainder executes.  Raises
        :class:`~repro.errors.BatchError` for an unknown id.
    journal:
        ``False`` turns the write-ahead journal off; otherwise a run
        journals whenever a cache root exists (the store's root, else
        an explicit ``cache_dir``).
    options:
        The :class:`~repro.options.CompileOptions` every job built here
        runs under (default ``CompileOptions()``): flow options such as
        ``corners``, ``vt``, ``verify``, ``seed``, ``implement`` and the
        sparsities go into each job's key; ``job_timeout_s`` arms the
        watchdog and ``retries`` sets the retry budget.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        use_cache: bool = True,
        progress: Optional[ProgressFn] = None,
        resume: Optional[str] = None,
        journal: bool = True,
        options: Optional[CompileOptions] = None,
    ) -> None:
        self.options = options if options is not None else CompileOptions()
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if use_cache else None
        )
        self.progress = progress
        # The store's root, else an explicit cache_dir; with neither, no
        # journal rather than a surprise write under the home directory.
        root = self.cache.root if self.cache is not None else cache_dir
        self._journal_root: Optional[pathlib.Path] = (
            pathlib.Path(root).expanduser() if journal and root is not None else None
        )
        self._resume = resume
        if resume is not None and self._journal_root is None:
            raise BatchError(
                "resume requires a journal root: enable the cache or "
                "pass cache_dir"
            )
        #: The id this run journals under (and prints, so a killed
        #: sweep can come back as ``--resume <run_id>``).
        self.run_id: Optional[str] = (
            resume
            if resume is not None
            else (new_run_id() if self._journal_root is not None else None)
        )

    # -- job construction ---------------------------------------------------

    def compile_specs(
        self, specs: Sequence[MacroSpec], implement: Optional[bool] = None
    ) -> BatchResult:
        """Full compile of every spec (the sweep entry point);
        ``implement`` overrides ``options.implement`` for this call."""
        options = self.options
        if implement is not None:
            options = options.replace(implement=implement)
        return self.run_jobs([options.compile_job(spec) for spec in specs])

    # -- execution ----------------------------------------------------------

    def run_jobs(self, jobs: Sequence[CompileJob]) -> BatchResult:
        """Dedup, consult journal + cache, execute the rest (with
        watchdog/retry when pooled), reassemble.  Each job runs under
        its own ``options``; of duplicate jobs, the first one's."""
        started = time.monotonic()
        stats = BatchStats(total=len(jobs), run_id=self.run_id)
        keys = [job.key() for job in jobs]
        by_key: Dict[str, CompileJob] = {}
        for key, job in zip(keys, jobs):
            by_key.setdefault(key, job)
        stats.unique = len(by_key)

        journal: Optional[SweepJournal] = None
        resumed: Dict[str, Record] = {}
        if self._journal_root is not None:
            if self._resume is not None:
                resumed = SweepJournal.load(self._journal_root, self._resume)
            journal = SweepJournal(
                self._journal_root, run_id=self.run_id, store=self.cache
            )

        resolved: Dict[str, Record] = {}
        pending: Dict[str, CompileJob] = {}

        def landed(ticket: Ticket) -> None:
            resolved[ticket.key] = ticket.record
            if self.progress is not None:
                self.progress(len(resolved), stats.unique, ticket.record)

        # One ticket per dispatch, over the misses found below: a
        # 1,200-point sweep holds only the jobs in flight or in retry.
        tickets: Iterator[Ticket] = iter(())
        executor = JobExecutor(
            self.jobs, feed=lambda: next(tickets, None),
            store=self.cache, journal=journal,
        )
        try:
            for key, job in by_key.items():
                if key in resumed:
                    # Journal beats cache: it also holds the error/timeout
                    # records the cache deliberately refuses to store.
                    stats.resumed += 1
                    resolved[key] = dict(
                        resumed[key], cached=False, resumed=True, job_key=key
                    )
                elif (hit := executor.lookup(key)) is not None:
                    resolved[key] = hit
                else:
                    pending[key] = job
            if self.progress is not None:
                for i, record in enumerate(resolved.values(), start=1):
                    self.progress(i, stats.unique, record)
            if journal is not None:
                journal.begin(total=stats.total, unique=stats.unique)
                journal.submit(pending.keys())
            tickets = (Ticket(key, job, landed) for key, job in pending.items())
            use_pool = self.jobs > 1 and (
                len(pending) > 1
                or any(
                    job.options.job_timeout_s is not None
                    for job in pending.values()
                )
            )
            if use_pool:
                # No more workers than misses.
                executor.workers = min(self.jobs, len(pending))
                executor.drain()
            else:
                for ticket in tickets:
                    executor.run_inline(ticket)
            if journal is not None:
                journal.seal()  # complete: no longer resume state
        finally:
            executor.close()
            if journal is not None:
                journal.close()
        stats.cache_hits = executor.counts["cache_hits"]
        stats.compiled = executor.counts["compiled"]
        stats.retried = executor.counts["retried"]
        stats.worker_spawns = executor.worker_spawns

        # Resumed, cached and executed records are fresh objects, so
        # only a key's second and later occurrences (duplicate input
        # specs) are copied, to keep them from aliasing nested dicts.
        # Status tallies run over the *returned* records (cache hits
        # and resumed records included).
        records = []
        returned = set()
        for key in keys:
            record = resolved[key]
            if key in returned:
                record = copy.deepcopy(record)
            returned.add(key)
            records.append(record)
        statuses = [r.get("status") for r in records]
        stats.infeasible = statuses.count("infeasible")
        stats.failed = statuses.count("error")
        stats.timeouts = statuses.count("timeout")
        stats.elapsed_s = time.monotonic() - started
        return BatchResult(records=records, stats=stats)

    def map(self, fn: Callable, items: Iterable) -> List[object]:
        """Order-preserving parallel map over picklable ``fn``/``items``
        on this engine's worker budget; serial when ``jobs=1``.  An
        exception ``fn`` raises in a worker is raised here, and a
        worker that dies raises :class:`~repro.errors.BatchError`."""
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        _publish_scl()
        results: List[object] = [None] * len(items)
        todo = iter(enumerate(items))
        workers: List[_Worker] = []
        try:
            for _ in range(min(self.jobs, len(items))):
                workers.append(_Worker(workers))
            idle = list(workers)
            while True:
                for worker, (index, item) in zip(idle, todo):
                    worker.run(fn, item, index)
                busy = [w for w in workers if w.task is not None]
                if not busy:
                    return results
                handles = [w.conn for w in busy] + [w.sentinel for w in busy]
                ready = set(wait(handles))
                idle = []
                for worker in busy:
                    readable = worker.conn in ready
                    if not readable and worker.sentinel not in ready:
                        continue
                    index, reply = worker.task, worker.reply(readable)
                    if reply is None:
                        worker.reap()
                        raise BatchError(
                            f"map worker died ({worker.exit_reason()})"
                        )
                    ok, value = reply
                    if not ok:
                        raise value
                    results[index] = value
                    idle.append(worker)
        finally:
            _stop_workers(workers)


@dataclass(eq=False)
class Ticket:
    """One job's passage through a :class:`JobExecutor`.

    The caller fills in the job, whose ``options`` carry its execution
    policy (``job_timeout_s``, ``retries``); the executor keeps the
    retry bookkeeping and, once the job is terminal and recorded, sets
    ``record`` and calls ``done(ticket)`` on its dispatching thread.
    """

    key: str
    job: CompileJob
    done: Callable[["Ticket"], None]
    #: Transient failures charged so far, one ``history`` entry each.
    attempts: int = 0
    history: List[Dict[str, object]] = field(default_factory=list)
    record: Optional[Record] = None
    #: Watchdog deadline of the current dispatch (monotonic seconds).
    deadline: Optional[float] = None


class JobExecutor:
    """Dispatch, watchdog and retry loop over worker processes it owns,
    and the one record path of the batch engine and the service.

    Each worker is a process with its own duplex pipe
    (:class:`_Worker`).  The dispatching thread sends a job straight to
    an idle worker, blocks in :func:`multiprocessing.connection.wait`
    on the busy workers' pipes, every worker's process sentinel and a
    self-pipe that :meth:`wake` writes to, and reads each record
    straight back — no helper thread relays either way.  A worker
    holds at most one job, so a job's dispatch time is its start time,
    the moment its ``options.job_timeout_s`` deadline is measured from.

    Workers start when the first job is dispatched (after the parent
    has resolved the subcircuit library, once per executor, and the
    worst-corner library of each corner option set it dispatches, once
    per set) and live
    until :meth:`close`; after every dispatch the pool is topped up to
    ``workers`` processes, so a worker lost to a crash or a watchdog
    kill is replaced when work remains.  ``worker_spawns`` counts the
    processes started: ``workers`` for a clean run, plus one per loss
    that left work to do.

    The parent knows which job each worker holds, so a failure is
    charged to exactly that job: an overdue job (its worker alone is
    killed), a worker that died (EOF on its pipe, or its sentinel), or
    a job function that raised.  The charge spends one attempt of the
    job's ``options.retry_policy()`` and re-queues it (after the
    policy's backoff) until the budget runs out, when it lands as a
    terminal ``timeout``/``error`` record carrying its
    ``retry_history``.  No other job is ever killed or re-run on its
    account.

    :meth:`lookup` serves hits from ``store``; every terminal ticket is
    written once (the ``journal``'s ``done`` line, else ``store.put``),
    stamped and counted in ``counts`` before ``done(ticket)`` runs.

    Work arrives through ``feed``, called whenever a worker is free
    (and no retry is due) for the next ticket, or ``None``.  Two ways
    to drive it, besides :meth:`run_inline`:

    * :meth:`drain` dispatches on the calling thread until ``feed`` is
      exhausted and every ticket is terminal (the batch engine);
    * :meth:`start` dispatches on a background thread until
      :meth:`close`; a producer calls :meth:`wake` after queueing work
      for ``feed`` (the compile service).
    """

    def __init__(
        self,
        workers: int,
        feed: Callable[[], Optional[Ticket]],
        store: Optional[ResultStore] = None,
        journal: Optional[SweepJournal] = None,
    ) -> None:
        self.workers = max(1, workers)
        self._feed = feed
        self._store = store
        self._journal = journal
        #: Hits served, executions recorded, jobs retried at least once;
        #: written by serialized ``lookup`` callers and the dispatcher.
        self.counts = {"cache_hits": 0, "compiled": 0, "retried": 0}
        #: Live workers; ``task`` is the ticket a busy one holds.
        self._pool: List[_Worker] = []
        self._ready: Deque[Ticket] = deque()
        #: Tickets in retry backoff: (not before, sequence, ticket).
        self._delayed: List[Tuple[float, int, Ticket]] = []
        self._seq = itertools.count()
        #: Self-pipe: :meth:`wake` writes a byte to end a dispatch wait.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        self._wake_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._close_by: Optional[float] = None
        #: Worker processes started so far (a deterministic work counter).
        self.worker_spawns = 0
        #: Corner option sets whose worst-corner SCL is resolved here.
        self._prewarmed: Set[CompileOptions] = set()

    # -- driving ------------------------------------------------------------

    def drain(self) -> None:
        """Dispatch on this thread until ``feed`` is exhausted and
        every ticket is terminal."""
        self._loop(lambda idle: idle)

    def start(self) -> None:
        """Dispatch on a background thread until :meth:`close`."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._serve, name="repro-dispatch", daemon=True
            )
            self._thread.start()

    def lookup(self, key: str) -> Optional[Record]:
        """``key``'s stored record, stamped ``cached=True`` (a counted
        hit), or ``None``."""
        record = None if self._store is None else self._store.get(key)
        if record is None:
            return None
        self.counts["cache_hits"] += 1
        return dict(record, cached=True, job_key=key)

    def run_inline(self, ticket: Ticket) -> None:
        """Execute ``ticket`` in this process (no watchdog, no retry),
        then record it."""
        from ..compiler.syndcim import execute_job

        self._land(ticket, execute_job(ticket.job.payload()))

    def wake(self) -> None:
        """End the dispatch wait now (thread-safe): ``feed`` may have
        work, or :meth:`close` was called."""
        with self._wake_lock:
            if self._wake_w is not None:
                try:
                    os.write(self._wake_w, b"\0")
                except BlockingIOError:
                    pass  # the pipe is full: a wakeup is pending anyway

    def close(self, timeout: float = 0.0) -> None:
        """Stop taking work from ``feed``, give what is in flight or
        awaiting retry up to ``timeout`` seconds to land (background
        mode), then stop the workers — killing whatever still runs —
        and reap them."""
        thread, self._thread = self._thread, None
        if thread is None:
            self._shutdown()
        else:
            self._close_by = time.monotonic() + timeout
            self.wake()
            thread.join()
        with self._wake_lock:
            if self._wake_w is not None:
                os.close(self._wake_w)
                os.close(self._wake_r)
                self._wake_w = None

    def stats(self) -> Dict[str, int]:
        return {
            "workers": self.workers,
            "in_flight": sum(w.task is not None for w in list(self._pool)),
            "worker_spawns": self.worker_spawns,
        }

    def _serve(self) -> None:
        def closed(idle: bool) -> bool:
            close_by = self._close_by
            return close_by is not None and (
                idle or time.monotonic() >= close_by
            )

        try:
            self._loop(closed)
        finally:
            self._shutdown()

    def _loop(self, stop: Callable[[bool], bool]) -> None:
        self._launch()
        while not stop(self._idle()):
            handles = [self._wake_r]
            for worker in self._pool:
                handles.append(worker.sentinel)
                if worker.task is not None:
                    handles.append(worker.conn)
            ready = set(wait(handles, timeout=self._next_timer()))
            if self._wake_r in ready:
                os.read(self._wake_r, 4096)
            landed = self._collect(ready)
            # Refill the window before the callbacks run, so no worker
            # waits on the parent's cache writes, journal or progress.
            self._launch()
            for ticket, record in landed:
                self._land(ticket, record)

    def _idle(self) -> bool:
        return not (self._busy() or self._ready or self._delayed)

    def _busy(self) -> List["_Worker"]:
        return [w for w in self._pool if w.task is not None]

    def _next_timer(self) -> Optional[float]:
        """Seconds until the loop must look again although nothing
        completed: the earliest watchdog deadline, backoff expiry or
        close deadline, at most ``_MAX_WAIT_S`` (``None``: wait for a
        reply, a death or a wake)."""
        deadlines = (w.task.deadline for w in self._busy())
        times = [d for d in deadlines if d is not None]
        if self._delayed:
            times.append(self._delayed[0][0])
        if self._close_by is not None:
            times.append(self._close_by)
        if not times:
            return None
        # A hair past the earliest, so it has passed when checked.
        wait_s = max(0.0, min(times) - time.monotonic()) + 1e-3
        return min(wait_s, _MAX_WAIT_S)

    # -- dispatch -----------------------------------------------------------

    def _launch(self) -> None:
        """Fill the window: tickets due for (re-)dispatch first, then
        the feed; then top the pool up to ``workers`` processes."""
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            self._ready.append(heapq.heappop(self._delayed)[2])
        dispatched = False
        while len(self._busy()) < self.workers:
            if self._ready:
                ticket = self._ready.popleft()
            elif self._close_by is None:
                ticket = self._feed()
                if ticket is None:
                    break
            else:
                break
            self._dispatch(ticket)
            dispatched = True
        # Topping up after the window is full lets the first job start
        # before the other workers fork, and keeps the spawn count
        # independent of how fast the first jobs finish.
        while dispatched and len(self._pool) < self.workers:
            try:
                self._spawn()
            except OSError:
                break  # retried at the next dispatch

    def _dispatch(self, ticket: Ticket) -> None:
        # Imported per dispatch, not at start: a service must not pay
        # for the compiler's import before its first miss.
        from ..compiler.syndcim import execute_job

        payload = ticket.job.payload()
        if active_plan() is not None:
            # Ephemeral context (never part of the job key): lets
            # workers compute the same fault draws as the parent.
            payload["fault_ctx"] = {
                "key": ticket.key,
                "attempt": ticket.attempts + 1,
            }
        options = ticket.job.options
        if options.corners and options not in self._prewarmed:
            self._prewarmed.add(options)
            _prewarm_corners(options)
        worker = next((w for w in self._pool if w.task is None), None)
        try:
            if worker is None:
                worker = self._spawn()
        except OSError as exc:
            # A worker could not start (fork failed): charged, so a
            # pool that can never start cannot retry forever.
            self._charge(
                ticket, "error",
                f"worker could not start: {type(exc).__name__}: {exc}",
            )
            return
        timeout_s = ticket.job.options.job_timeout_s
        ticket.deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        try:
            worker.run(execute_job, payload, ticket)
        except OSError:
            # The worker died between its last job and this one.
            self._lost(worker)

    def _spawn(self) -> "_Worker":
        if self.worker_spawns == 0:
            _publish_scl()
        worker = _Worker(self._pool)
        self._pool.append(worker)
        self.worker_spawns += 1
        return worker

    def _shutdown(self) -> None:
        """Stop every worker (killing busy ones) and reap them."""
        pool, self._pool = self._pool, []
        _stop_workers(pool)

    # -- verdicts -----------------------------------------------------------

    def _collect(self, ready: set) -> List[Tuple[Ticket, Record]]:
        """Read the replies of the workers in ``ready``; returns the
        records that came back.  A job function that raised, a worker
        that died and an overdue job are each charged to the one
        ticket involved."""
        landed: List[Tuple[Ticket, Record]] = []
        for worker in list(self._pool):
            readable = worker.conn in ready
            if not readable and worker.sentinel not in ready:
                continue
            ticket = worker.task
            reply = None if ticket is None else worker.reply(readable)
            if reply is None or worker.sentinel in ready:
                self._lost(worker)  # charges its job if it did not reply
            if reply is None:
                continue
            ok, value = reply
            if ok:
                landed.append((ticket, value))
            else:
                self._charge(
                    ticket, "error",
                    f"job raised {type(value).__name__}: {value}",
                )
        self._watchdog()
        return landed

    def _lost(self, worker: "_Worker") -> None:
        """``worker`` died: reap it and charge the job it still held,
        if any."""
        self._pool.remove(worker)
        worker.reap()
        if worker.task is not None:
            self._charge(
                worker.task, "error", f"worker died ({worker.exit_reason()})"
            )

    def _retire(self, worker: "_Worker") -> None:
        """Stop ``worker`` (killing it if busy) and reap it."""
        self._pool.remove(worker)
        _stop_workers([worker])

    def _watchdog(self) -> None:
        """A running job cannot be interrupted: kill the worker of each
        overdue job (the next dispatch starts a replacement) and charge
        that job alone."""
        now = time.monotonic()
        for worker in self._busy():
            ticket = worker.task
            if ticket.deadline is not None and now >= ticket.deadline:
                self._retire(worker)
                self._charge(
                    ticket, "timeout",
                    "watchdog: exceeded job timeout "
                    f"{ticket.job.options.job_timeout_s:g}s",
                )

    def _charge(self, ticket: Ticket, status: str, reason: str) -> None:
        """Spend one attempt of the ticket's budget on a transient
        failure: re-queue it after the policy's backoff or, with the
        budget spent, land a terminal ``status`` record."""
        ticket.attempts += 1
        n = ticket.attempts
        plan = active_plan()
        fault = None if plan is None else plan.planned(ticket.key, n)
        entry: Dict[str, object] = {
            "attempt": n,
            "outcome": status,
            "reason": reason,
        }
        if fault is not None:
            entry["fault"] = fault
        ticket.history.append(entry)
        retry = ticket.job.options.retry_policy()
        if n < retry.max_attempts:
            delay = retry.delay(n)
            if delay > 0:
                heapq.heappush(
                    self._delayed,
                    (time.monotonic() + delay, next(self._seq), ticket),
                )
            else:
                self._ready.append(ticket)
            return
        from ..compiler.syndcim import _failure_record

        ticket.record = dict(
            _failure_record(ticket.job.spec, status, reason),
            elapsed_s=0.0,
            attempts=n,
            retry_history=list(ticket.history),
        )
        if fault is not None:
            ticket.record["fault"] = fault
        self._record(ticket, None)

    def _land(self, ticket: Ticket, record: Record) -> None:
        """A record came back from an execution: annotate the retry
        bookkeeping (if any) on the ticket's record, never on the one
        stored."""
        ticket.record = (
            dict(
                record,
                attempts=ticket.attempts + 1,
                retry_history=list(ticket.history),
            )
            if ticket.history
            else record
        )
        self._record(ticket, record)

    def _record(self, ticket: Ticket, executed: Optional[Record]) -> None:
        """Write, stamp and count a terminal ticket, then hand it back.
        ``executed`` (``None`` when the retry budget ran out first) is
        what the store keeps: a fault-free run's record."""
        from ..compiler.syndcim import CACHEABLE_STATUSES

        cacheable = (
            executed is not None
            and executed.get("status") in CACHEABLE_STATUSES
        )
        if self._journal is not None:
            self._journal.done(ticket.key, ticket.record, cacheable)
        elif cacheable and self._store is not None:
            self._store.put(ticket.key, executed)
        ticket.record = dict(ticket.record, cached=False, job_key=ticket.key)
        self.counts["compiled"] += executed is not None
        self.counts["retried"] += ticket.attempts > 0
        ticket.done(ticket)


def _publish_scl() -> None:
    """Resolve the subcircuit library once in the parent before its
    first worker starts, then publish its tensors over shared memory
    under a content-keyed name.  Fork-started children inherit the
    live object; spawn/forkserver children attach the published
    segment zero-copy through :func:`_worker_initializer` (falling back
    to the persistent disk artifact, then to a characterization) —
    either way no worker re-runs the characterization.  Publishing is
    best-effort: a shm-less platform degrades to the pre-shm
    behaviour."""
    from ..scl.library import default_scl
    from ..shm.scl import publish_default_scl

    default_scl()
    publish_default_scl()


def _prewarm_corners(options: CompileOptions) -> None:
    """Corner jobs also need the worst-corner SCL: resolve it in the
    parent before the job's worker is dispatched (building and
    persisting it on the first ever run), so forked workers inherit it
    and the others load it from disk.  Shares the compiler's
    resolution (:func:`repro.signoff.corners.worst_corner_scl`), so the
    prewarmed artifact is exactly the one workers will ask for.
    Failure is survivable (workers characterize lazily) but not
    silent: a once-per-process warning names the cause, so a
    misconfigured cache dir reads as a warning, not a mystery
    slowdown."""
    try:
        from ..signoff.corners import worst_corner_scl

        worst_corner_scl(options.resolve_process(), options.corner_set())
    except Exception as exc:
        global _PREWARM_WARNED
        if not _PREWARM_WARNED:
            _PREWARM_WARNED = True
            warnings.warn(
                "repro: corner-SCL prewarm failed "
                f"({type(exc).__name__}: {exc}); workers will "
                "characterize lazily — expect a slow first job "
                "per process",
                RuntimeWarning,
                stacklevel=2,
            )


#: Once-per-process latch for the corner-prewarm warning above.
_PREWARM_WARNED = False


class _Worker:
    """One worker process and the parent's end of its duplex pipe.

    The process runs :func:`_worker_main`: it receives ``(fn, arg)``,
    answers ``(True, fn(arg))`` or ``(False, exception)``, and exits on
    ``None``.  The parent closes its copy of the child's end at once, so
    the child's death reads as EOF here (and fires ``sentinel``)."""

    def __init__(self, siblings: Iterable["_Worker"]) -> None:
        ctx = multiprocessing.get_context()
        self.conn, child = ctx.Pipe()
        # A forked child inherits every pipe end the parent holds; it
        # closes the parent's ends so that they stay the parent's alone.
        inherited = (
            [self.conn, *(w.conn for w in siblings)]
            if ctx.get_start_method() == "fork"
            else []
        )
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child, inherited),
            name="repro-worker",
            daemon=True,
        )
        try:
            self.proc.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child.close()
        self.sentinel = self.proc.sentinel
        #: What the worker is running (its caller's handle), or None.
        self.task: object = None
        #: The process's exit code, once reaped.
        self.exitcode: Optional[int] = None

    def run(self, fn: Callable, arg: object, task: object) -> None:
        self.task = task
        self.conn.send((fn, arg))

    def reply(self, readable: bool) -> Optional[Tuple[bool, object]]:
        """The answer to the running task, or ``None`` if the worker
        died without one.  ``readable``: the pipe is known ready."""
        try:
            if readable or self.conn.poll():
                answer = self.conn.recv()
                self.task = None
                return answer
        except (EOFError, OSError):
            pass
        return None

    def stop(self) -> None:
        """Ask an idle worker to exit; kill a busy one."""
        if self.conn.closed:
            return
        if self.task is None:
            try:
                self.conn.send(None)
            except OSError:
                pass  # already gone
        else:
            self.proc.kill()

    def reap(self) -> None:
        """Wait for the process to end, then release its pipe and
        sentinel (idempotent)."""
        if self.conn.closed:
            return
        self.proc.join(5.0)
        if self.proc.exitcode is None:
            self.proc.kill()
            self.proc.join()
        self.exitcode = self.proc.exitcode
        self.proc.close()
        self.conn.close()

    def exit_reason(self) -> str:
        """How a reaped worker ended."""
        if self.exitcode is not None and self.exitcode < 0:
            try:
                return f"killed by {signal.Signals(-self.exitcode).name}"
            except ValueError:
                return f"killed by signal {-self.exitcode}"
        return f"exit code {self.exitcode}"


def _stop_workers(workers: Sequence[_Worker]) -> None:
    """Ask idle workers to exit and kill busy ones, then reap them all."""
    for worker in workers:
        worker.stop()
    for worker in workers:
        worker.reap()


def _worker_main(conn, inherited) -> None:
    """A worker process: run ``(fn, arg)`` tasks from ``conn`` until
    the parent sends ``None`` or its end closes.

    A forked worker inherits the parent's Python-level signal handlers
    (``repro serve`` installs its own for SIGINT and SIGTERM): the
    default SIGTERM action is restored so a terminate still kills it,
    and SIGINT is ignored — a Ctrl-C reaches the whole process group,
    and the parent decides what happens to running jobs."""
    for other in inherited:
        other.close()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_initializer()
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        fn, arg = task
        try:
            answer = (True, fn(arg))
        except Exception as exc:
            answer = (False, exc)
        try:
            conn.send(answer)
        except Exception as exc:  # an unpicklable result or exception
            conn.send((False, BatchError(
                f"cannot return the result: {type(exc).__name__}: {exc}"
            )))


def _worker_initializer() -> None:
    """Worker startup hook: make sure an SCL is resolved before the
    first job lands, so per-job latencies measure compilation, not
    characterization.

    Resolution order for the SCL: the shared-memory segment the parent
    published (found by content key; zero-copy tensor attach,
    sub-millisecond), then the persistent disk artifact (or the live
    object inherited under fork), then a lazy characterization on
    first use.  A worker that cannot preload still works, but says so
    once (this hook runs once per process), because a misconfigured
    cache dir showing up as a uniform slowdown is the kind of mystery
    that eats an afternoon."""
    try:
        from ..scl.library import default_scl
        from ..shm.scl import attach_default_scl

        if attach_default_scl() is None:
            default_scl()
    except Exception as exc:
        warnings.warn(
            "repro: batch worker could not preload the subcircuit "
            f"library ({type(exc).__name__}: {exc}); jobs will "
            "characterize lazily — check the SCL cache directory",
            RuntimeWarning,
            stacklevel=2,
        )


def __getattr__(name: str):
    # The engine ran on the standard library's process pool before it
    # owned its workers; ``e2ebench/spans.py`` still subclasses that
    # class under this name to time pool construction.  Nothing here
    # constructs it.
    if name == "ProcessPoolExecutor":
        from concurrent import futures

        return futures.ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
