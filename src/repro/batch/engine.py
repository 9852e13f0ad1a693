"""The batch compilation engine.

:class:`BatchCompiler` takes many jobs (full compiles of different
specs, or implement-only runs of explicit architectures), deduplicates
identical ones by content hash, satisfies what it can from the
persistent :class:`~repro.batch.cache.ResultCache`, and schedules the
remainder across a ``concurrent.futures`` process pool.  Workers
receive plain-dict payloads and return plain-dict records (see
:func:`repro.compiler.syndcim.execute_job`), so no live compiler
objects ever cross a process boundary.

Scheduling notes
----------------
* ``jobs=1`` (or a single pending job without a watchdog) runs inline
  in this process — no pool, easier debugging, identical results.
  Watchdog timeouts, retries and fault injection are pool features;
  inline mode trades them for debuggability.
* Pooled jobs go through a :class:`JobExecutor`: one process pool,
  spawned on the first dispatch and kept until it breaks or the
  watchdog kills it, behind a sliding-window dispatch loop that also
  runs the watchdog and the retry loop.  :meth:`BatchCompiler.run_jobs`
  uses one executor per call; the compile service
  (:class:`repro.service.queue.JobQueue`) uses one for its lifetime.
* Every pool spawn first resolves the subcircuit library in the parent
  (persistent disk cache, falling back to one characterization); a
  pool initializer then warms every child from the same artifact, so
  no worker ever re-runs the characterization — under ``fork`` *and*
  ``spawn`` alike.
* Job failures are *data*: infeasible specs come back as
  ``status="infeasible"`` records (and are cached — they are
  deterministic), unexpected compiler errors as ``status="error"``
  (not cached).  A sweep never dies half way because one grid corner
  cannot meet timing.

Resilience (see :mod:`repro.batch.resilience` and
``docs/robustness.md``)
----------------------------------------------------------------------
* ``job_timeout_s`` arms a watchdog: jobs are dispatched in a sliding
  window (never more in flight than workers, so dispatch ≈ start),
  each carries a deadline, and an overdue job gets its pool killed
  and recycled rather than hanging the sweep forever.
* Transient failures — a broken pool, a watchdog kill, a future that
  raised with the pool alive — are retried under a
  :class:`~repro.batch.resilience.RetryPolicy` with exponential
  backoff; only an exhausted budget yields terminal
  ``error``/``timeout`` records, annotated with ``attempts`` and
  ``retry_history``.
* Every run with a cache root keeps a write-ahead
  :class:`~repro.batch.resilience.SweepJournal`;
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
import os
import pathlib
import signal
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..arch import MacroArchitecture
from ..errors import BatchError
from ..options import CompileOptions
from ..spec import MacroSpec
from ..verify.harness import DEFAULT_VECTORS
from .cache import ResultCache, ResultStore, default_cache_dir
from .faults import active_plan
from .jobs import CompileJob, ImplementJob
from .resilience import RetryPolicy, SweepJournal, new_run_id

Job = Union[CompileJob, ImplementJob]
Record = Dict[str, object]
#: progress(done, total, record) — called after every job completion.
ProgressFn = Callable[[int, int, Record], None]


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
    #: Process pools spawned: one for a pooled run, plus one per pool
    #: break or watchdog kill that left work to do; 0 when inline.
    pool_spawns: int = 0
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

    @property
    def ok(self) -> List[Record]:
        return [r for r in self.records if r.get("status") == "ok"]

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
    seed:
        Search-order seed forwarded to every compile job (part of the
        cache key).
    corners:
        Signoff-corner names forwarded to every job (part of the cache
        key); each worker then evaluates its design at every corner, so
        a corner sweep fans out over the same pool as the spec grid.
    verify / verify_vectors:
        Post-synthesis functional verification forwarded to every
        compile job (part of the cache key): each worker drives its
        implemented netlist with that many randomized + directed MAC
        stimuli against the golden model and the record carries the
        report — functional verification as a batch workload.
    job_timeout_s:
        Per-job watchdog deadline (pool mode only): an overdue worker
        is killed with its pool and the job retried; after the retry
        budget it records ``status="timeout"``.  ``None`` (default)
        disables the watchdog.
    retry:
        :class:`~repro.batch.resilience.RetryPolicy` for transient
        failures; the default (two attempts, no backoff) matches the
        engine's historical single-retry behaviour.
    resume:
        A previous run's id (``BatchStats.run_id``): finished records
        are restored from its write-ahead journal and only the
        remainder executes.  Raises
        :class:`~repro.errors.BatchError` for an unknown id.
    journal:
        Force journaling on/off; the default (``None``) journals
        whenever a cache root exists (``use_cache=True`` or an
        explicit ``cache_dir``).
    progress:
        Optional callback invoked after each job resolves.
    store:
        An explicit :class:`~repro.batch.cache.ResultStore` backend to
        consult and populate instead of constructing a
        :class:`~repro.batch.cache.ResultCache` from
        ``cache_dir``/``use_cache``.  Journaling follows the store's
        filesystem ``root`` when it has one.
    options:
        A :class:`~repro.options.CompileOptions` bundle supplying
        ``seed``/``corners``/``verify``/``verify_vectors``/``vt``/
        ``job_timeout_s`` (and, via :meth:`~repro.options.
        CompileOptions.retry_policy`, ``retry``) in one validated
        object; the individual keyword arguments for those fields are
        ignored when ``options`` is given.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        use_cache: bool = True,
        seed: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
        corners: Optional[Sequence[str]] = None,
        verify: bool = False,
        verify_vectors: int = DEFAULT_VECTORS,
        vt: str = "svt",
        job_timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        resume: Optional[str] = None,
        journal: Optional[bool] = None,
        store: Optional[ResultStore] = None,
        options: Optional[CompileOptions] = None,
    ) -> None:
        self.options = options
        if options is not None:
            seed = options.seed
            corners = options.corners
            verify = options.verify
            verify_vectors = options.verify_vectors
            vt = options.vt
            job_timeout_s = options.job_timeout_s
            retry = options.retry_policy() if retry is None else retry
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        if store is not None:
            self.cache: Optional[ResultStore] = store if use_cache else None
        elif use_cache:
            self.cache = ResultCache(cache_dir) if cache_dir else ResultCache()
        else:
            self.cache = None
        self.seed = seed
        self.corners = None if corners is None else tuple(corners)
        self.verify = verify
        self.verify_vectors = verify_vectors
        #: Threshold-flavor policy forwarded to every compile job.
        self.vt = vt
        self.progress = progress
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise BatchError("job_timeout_s must be positive")
        self.job_timeout_s = job_timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self._journal_root = self._resolve_journal_root(
            journal, cache_dir, use_cache
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
        #: Shared-memory segments published by this engine (SCL tensors
        #: from every pool spawn, net views from
        #: :meth:`publish_net_view`); every pool worker receives this
        #: list through its initializer and attaches zero-copy.
        self._shm_segments: List[str] = []

    def _resolve_journal_root(
        self,
        journal: Optional[bool],
        cache_dir: Optional[os.PathLike],
        use_cache: bool,
    ) -> Optional[pathlib.Path]:
        if journal is False:
            return None
        if self.cache is not None:
            # Memory-backed stores have no filesystem root to journal
            # under; they fall through to cache_dir / explicit opt-in.
            root = getattr(self.cache, "root", None)
            if root is not None:
                return pathlib.Path(root)
        if cache_dir is not None:
            return pathlib.Path(cache_dir).expanduser()
        if journal is True:
            return default_cache_dir()
        # No cache root and journaling not requested: stay off rather
        # than surprise-writing under the user's home directory.
        return None

    # -- job construction ---------------------------------------------------

    def compile_specs(
        self,
        specs: Sequence[MacroSpec],
        implement: bool = True,
        input_sparsity: float = 0.0,
        weight_sparsity: float = 0.0,
    ) -> BatchResult:
        """Full compile of every spec (the sweep entry point)."""
        return self.run_jobs(
            [
                CompileJob(
                    spec=spec,
                    implement=implement,
                    input_sparsity=input_sparsity,
                    weight_sparsity=weight_sparsity,
                    seed=self.seed,
                    corners=self.corners,
                    verify=self.verify,
                    verify_vectors=self.verify_vectors,
                    vt=self.vt,
                )
                for spec in specs
            ]
        )

    def implement_archs(
        self,
        spec: MacroSpec,
        archs: Sequence[MacroArchitecture],
        input_sparsity: float = 0.0,
        weight_sparsity: float = 0.0,
    ) -> BatchResult:
        """Implementation-only jobs for explicit architectures (used by
        benchmarks that already ran the search and picked points)."""
        return self.run_jobs(
            [
                ImplementJob(
                    spec=spec,
                    arch=arch,
                    input_sparsity=input_sparsity,
                    weight_sparsity=weight_sparsity,
                    corners=self.corners,
                    verify=self.verify,
                    verify_vectors=self.verify_vectors,
                )
                for arch in archs
            ]
        )

    # -- execution ----------------------------------------------------------

    def run_jobs(self, jobs: Sequence[Job]) -> BatchResult:
        """Dedup, consult journal + cache, execute the rest (with
        watchdog/retry when pooled), reassemble."""
        from ..compiler.syndcim import CACHEABLE_STATUSES, execute_job

        started = time.monotonic()
        stats = BatchStats(total=len(jobs), run_id=self.run_id)
        keys = [job.key() for job in jobs]
        by_key: Dict[str, Job] = {}
        for key, job in zip(keys, jobs):
            by_key.setdefault(key, job)
        stats.unique = len(by_key)

        journal: Optional[SweepJournal] = None
        resumed: Dict[str, Record] = {}
        if self._journal_root is not None:
            if self._resume is not None:
                resumed = SweepJournal.load(self._journal_root, self._resume)
            journal = SweepJournal(self._journal_root, run_id=self.run_id)

        resolved: Dict[str, Record] = {}
        pending: Dict[str, Job] = {}
        for key, job in by_key.items():
            if key in resumed:
                # Journal beats cache: it also holds the error/timeout
                # records the cache deliberately refuses to store.
                stats.resumed += 1
                resolved[key] = dict(
                    resumed[key], cached=False, resumed=True, job_key=key
                )
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                stats.cache_hits += 1
                resolved[key] = dict(cached, cached=True, job_key=key)
            else:
                pending[key] = job

        done = stats.cache_hits + stats.resumed

        def finish(key: str, record: Record, executed: Optional[Record]) -> None:
            """Account one terminal record.  ``executed`` is the record
            an execution returned (``None`` when a retry budget ran out
            first): it counts as compiled and is what the cache stores
            — bit-identical to a fault-free run's output, without the
            retry bookkeeping ``record`` may carry."""
            nonlocal done
            if executed is not None:
                stats.compiled += 1
                if (
                    self.cache is not None
                    and executed.get("status") in CACHEABLE_STATUSES
                ):
                    self.cache.put(key, executed)
            if journal is not None:
                journal.done(key, record)
            record = dict(record, cached=False, job_key=key)
            resolved[key] = record
            done += 1
            if self.progress is not None:
                self.progress(done, stats.unique, record)

        if self.progress is not None:
            for i, record in enumerate(resolved.values(), start=1):
                self.progress(i, stats.unique, record)

        try:
            if journal is not None:
                journal.begin(total=stats.total, unique=stats.unique)
                journal.submit(pending.keys())
            use_pool = self.jobs > 1 and (
                len(pending) > 1 or self.job_timeout_s is not None
            )
            if pending and use_pool:
                self._prewarm_corners(pending.values())
                queued = iter(pending.items())

                def feed() -> Optional[Ticket]:
                    # One ticket per dispatch: a 1,200-point sweep
                    # holds only the jobs in flight or awaiting retry.
                    item = next(queued, None)
                    if item is None:
                        return None
                    return Ticket(
                        *item,
                        landed,
                        timeout_s=self.job_timeout_s,
                        retry=self.retry,
                    )

                def landed(t: Ticket) -> None:
                    stats.retried += t.attempts > 0
                    finish(t.key, t.record, t.result)

                executor = JobExecutor(
                    min(self.jobs, len(pending)),
                    feed=feed,
                    shm_segments=self._shm_segments,
                )
                try:
                    executor.drain()
                finally:
                    executor.close()
                    stats.pool_spawns = executor.pool_spawns
            else:
                for key, job in pending.items():
                    record = execute_job(job.payload())
                    finish(key, record, record)
        finally:
            if journal is not None:
                journal.close()

        # Resumed, cached and executed records are fresh objects, so
        # only a key's second and later occurrences (duplicate input
        # specs) are copied, to keep them from aliasing nested dicts.
        # Status tallies run over the *returned* records (cache hits
        # included — finish() never sees them).
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
        using this engine's worker budget; serial when ``jobs=1``."""
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        _publish_scl(self._shm_segments)
        workers = min(self.jobs, len(items))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_initializer,
            initargs=(tuple(self._shm_segments),),
        ) as pool:
            return list(pool.map(fn, items))

    def publish_net_view(self, module, library=None) -> Optional[str]:
        """Publish one compiled netlist view's integer tables so pool
        workers hydrate it zero-copy instead of re-walking the module
        (see :mod:`repro.shm.netview`).  Call before :meth:`run_jobs` /
        :meth:`map` with any flat module the workers will analyze —
        e.g. a macro the parent already implemented.  Returns the
        segment name, or ``None`` when publishing was not possible."""
        from ..rtl.netview import net_view
        from ..shm.netview import publish_net_view as _publish
        from ..tech.stdcells import default_library

        view = net_view(module, library or default_library())
        name = _publish(view)
        if name is not None and name not in self._shm_segments:
            self._shm_segments.append(name)
        return name

    def _prewarm_corners(self, jobs: Iterable[Job]) -> None:
        """Corner jobs also need the worst-corner SCL: resolve it once
        per job process in the parent (building + persisting on the
        first ever run) so every worker loads the corner artifact from
        disk.  Shares the compiler's resolution
        (:func:`repro.signoff.corners.worst_corner_scl`), so the
        prewarmed artifact is exactly the one workers will ask for.
        Failure is survivable (workers characterize lazily) but not
        silent: a one-per-process warning names the cause, so a
        misconfigured cache dir reads as a warning, not a mystery
        slowdown."""
        if not self.corners:
            return
        try:
            from ..signoff.corners import CornerSet, worst_corner_scl
            from ..tech.process import process_by_name

            corner_set = CornerSet.from_names(self.corners, name="prewarm")
            for name in {job.process_name for job in jobs}:
                worst_corner_scl(process_by_name(name), corner_set)
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


@dataclass(eq=False)
class Ticket:
    """One job's passage through a :class:`JobExecutor`.

    The caller fills in the job and its execution policy; the executor
    keeps the retry bookkeeping and, once the job is terminal, sets
    ``record`` and calls ``done(ticket)`` on its dispatching thread.
    ``result`` is the record an execution returned — ``None`` when the
    retry budget ran out first — without the ``attempts`` /
    ``retry_history`` annotation ``record`` carries.
    """

    key: str
    job: Job
    done: Callable[["Ticket"], None]
    timeout_s: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Transient failures charged so far, one ``history`` entry each.
    attempts: int = 0
    history: List[Dict[str, object]] = field(default_factory=list)
    record: Optional[Record] = None
    result: Optional[Record] = None
    #: Watchdog deadline of the current dispatch (monotonic seconds).
    deadline: Optional[float] = None


class JobExecutor:
    """Sliding-window dispatch, watchdog and retry loop over one
    persistent process pool.

    The pool is spawned on the first dispatch (after the parent has
    resolved the subcircuit library, once per spawn) and kept until it
    breaks or the watchdog kills it; the next dispatch then spawns a
    fresh one.  At most ``workers`` jobs are in flight, so a job's
    dispatch time is its start time — the moment its ticket's
    ``timeout_s`` deadline is measured from.

    Casualties follow :mod:`repro.batch.resilience`: an overdue job, a
    future that raised with the pool alive, or a job in flight when the
    pool broke is charged one attempt of its ticket's
    :class:`RetryPolicy` and re-queued (after the policy's backoff)
    until the budget runs out, when it lands as a terminal
    ``timeout``/``error`` record carrying its ``retry_history``.  Jobs
    killed alongside an overdue one — whoever submitted them — re-run
    without being charged.

    Work arrives through ``feed``, called whenever a worker is free
    (and no retry is due) for the next ticket, or ``None``.  Two ways
    to drive it:

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
        shm_segments: Optional[List[str]] = None,
    ) -> None:
        self.workers = max(1, workers)
        self._feed = feed
        #: Shared-memory segments every worker attaches at start (the
        #: batch engine passes its own list, net views included).
        self._segments = shm_segments if shm_segments is not None else []
        self._pool: Optional[ProcessPoolExecutor] = None
        self._in_flight: Dict[Future, Ticket] = {}
        self._ready: Deque[Ticket] = deque()
        #: Tickets in retry backoff: (not before, sequence, ticket).
        self._delayed: List[Tuple[float, int, Ticket]] = []
        self._seq = itertools.count()
        #: Completed by :meth:`wake` to end a dispatch wait early; the
        #: dispatching thread swaps in a fresh one after each wait.
        self._wakeup: Future = Future()
        self._wake_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._close_by: Optional[float] = None
        #: Pools spawned so far (a deterministic work counter).
        self.pool_spawns = 0

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

    def wake(self) -> None:
        """End the dispatch wait now (thread-safe): ``feed`` may have
        work, or :meth:`close` was called."""
        with self._wake_lock:
            if not self._wakeup.done():
                self._wakeup.set_result(None)

    def close(self, timeout: float = 0.0) -> None:
        """Stop taking work from ``feed``, give what is in flight or
        awaiting retry up to ``timeout`` seconds to land (background
        mode), then shut the pool down — killing whatever still runs —
        and reap its workers."""
        thread, self._thread = self._thread, None
        if thread is None:
            self._retire(kill=bool(self._in_flight))
            return
        self._close_by = time.monotonic() + timeout
        self.wake()
        thread.join()

    def stats(self) -> Dict[str, int]:
        return {
            "workers": self.workers,
            "in_flight": len(self._in_flight),
            "pool_spawns": self.pool_spawns,
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
            self._retire(kill=bool(self._in_flight))

    def _loop(self, stop: Callable[[bool], bool]) -> None:
        self._launch()
        while not stop(self._idle()):
            ready, _ = wait(
                [*self._in_flight, self._wakeup],
                timeout=self._next_timer(),
                return_when=FIRST_COMPLETED,
            )
            with self._wake_lock:
                if self._wakeup.done():
                    self._wakeup = Future()
            landed = self._collect(ready)
            # Refill the window before the callbacks run, so no worker
            # waits on the parent's cache writes, journal or progress.
            self._launch()
            for ticket, record in landed:
                self._land(ticket, record)

    def _idle(self) -> bool:
        return not (self._in_flight or self._ready or self._delayed)

    def _next_timer(self) -> Optional[float]:
        """Seconds until the loop must look again although nothing
        completed: the earliest watchdog check, backoff expiry or
        close deadline (``None``: wait for a completion or a wake).

        The watchdog looks 5 % of a job's timeout (20-250 ms) past its
        deadline, so jobs dispatched together and overdue together are
        settled by one pool kill, not killed as each other's
        collateral a millisecond before their own deadlines."""
        times = [
            t.deadline + max(0.02, min(0.25, t.timeout_s / 20))
            for t in self._in_flight.values()
            if t.deadline is not None and t.timeout_s is not None
        ]
        if self._delayed:
            times.append(self._delayed[0][0])
        if self._close_by is not None:
            times.append(self._close_by)
        if not times:
            return None
        # A hair past the earliest, so it has passed when checked.
        return max(0.0, min(times) - time.monotonic()) + 1e-3

    # -- dispatch -----------------------------------------------------------

    def _launch(self) -> None:
        """Fill the window: tickets due for (re-)dispatch first, then
        the feed."""
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            self._ready.append(heapq.heappop(self._delayed)[2])
        while len(self._in_flight) < self.workers:
            if self._ready:
                ticket = self._ready.popleft()
            elif self._close_by is None:
                ticket = self._feed()
                if ticket is None:
                    return
            else:
                return
            self._dispatch(ticket)

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
        try:
            if self._pool is None:
                self._spawn()
            future = self._pool.submit(execute_job, payload)
        except (RuntimeError, OSError) as exc:
            # BrokenProcessPool is a RuntimeError: the pool broke under
            # us, or a new one could not start (fork failed).
            self._break(f"{type(exc).__name__}: {exc}", launching=ticket)
            return
        ticket.deadline = (
            None
            if ticket.timeout_s is None
            else time.monotonic() + ticket.timeout_s
        )
        self._in_flight[future] = ticket

    def _spawn(self) -> None:
        _publish_scl(self._segments)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_worker_initializer,
            initargs=(tuple(self._segments),),
        )
        self.pool_spawns += 1

    def _retire(self, kill: bool = False) -> None:
        """Shut the current pool down and reap its workers; ``kill``
        terminates them first, for work that must not finish.  Reaches
        into the executor's process table — there is no public kill
        switch, and a missing table (API drift) degrades to a plain
        shutdown."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                except (OSError, ValueError):
                    pass
        pool.shutdown(wait=True, cancel_futures=True)

    # -- verdicts -----------------------------------------------------------

    def _collect(self, ready) -> List[Tuple[Ticket, Record]]:
        """Settle completed futures; returns the records that came
        back.  A future that raised with the pool alive is charged
        here; a pool break and overdue jobs are settled across
        everything in flight."""
        landed: List[Tuple[Ticket, Record]] = []
        broken: Optional[str] = None
        for future in ready:
            ticket = self._in_flight.get(future)
            if ticket is None:
                continue  # the wakeup
            try:
                record = future.result()
            except BrokenProcessPool as exc:
                broken = f"{type(exc).__name__}: {exc}"
                continue  # still in flight: a suspect of the break
            except Exception as exc:
                # A single-future failure with the pool still alive
                # (cancellation, an injected raise): transient.
                del self._in_flight[future]
                self._charge(
                    ticket, "error",
                    f"worker died: {type(exc).__name__}: {exc}",
                )
                continue
            del self._in_flight[future]
            landed.append((ticket, record))
        if broken is not None:
            self._break(broken)
        self._watchdog()
        return landed

    def _break(self, reason: str, launching: Optional[Ticket] = None) -> None:
        """The pool broke: retire it and settle the jobs in flight —
        the only possible culprits, at most one per worker."""
        suspects = list(self._in_flight.values())
        self._in_flight.clear()
        self._retire(kill=True)
        if launching is not None:
            if suspects:
                self._ready.appendleft(launching)  # never started
            else:
                # Nothing in flight (the pool could not start): charge
                # the job being launched — the guard against retrying
                # a pool that can never start, forever.
                suspects = [launching]
        culprits = suspects
        plan = active_plan()
        if plan is not None:
            # The fault plan is deterministic on both sides of the
            # pool: the parent knows exactly which in-flight job was
            # scheduled to crash, so it alone is charged and its
            # pool-mates re-run free.  Without a plan (a real OOM or
            # segfault) the whole suspect set stays charged — the
            # parent genuinely cannot tell.
            culprits = [
                t for t in suspects
                if plan.planned(t.key, t.attempts + 1) == "crash"
            ] or suspects
        for ticket in suspects:
            if ticket in culprits:
                self._charge(ticket, "error", f"worker died: {reason}")
            else:
                self._ready.appendleft(ticket)

    def _watchdog(self) -> None:
        """Running futures cannot be cancelled: when a job is overdue,
        kill the pool (the next dispatch spawns a fresh one), charge
        the overdue jobs and re-run the rest uncharged."""
        now = time.monotonic()
        overdue = [
            t for t in self._in_flight.values()
            if t.deadline is not None and now >= t.deadline
        ]
        if not overdue:
            return
        collateral = [t for t in self._in_flight.values() if t not in overdue]
        self._in_flight.clear()
        self._retire(kill=True)
        self._ready.extendleft(collateral)
        for ticket in overdue:
            self._charge(
                ticket, "timeout",
                f"watchdog: exceeded job timeout {ticket.timeout_s:g}s",
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
        if n < ticket.retry.max_attempts:
            delay = ticket.retry.delay(n)
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
        ticket.done(ticket)

    def _land(self, ticket: Ticket, record: Record) -> None:
        """A record came back from an execution: annotate the retry
        bookkeeping (if any) on ``record``, never on ``result``."""
        ticket.result = record
        ticket.record = (
            dict(
                record,
                attempts=ticket.attempts + 1,
                retry_history=list(ticket.history),
            )
            if ticket.history
            else record
        )
        ticket.done(ticket)


def _publish_scl(segments: List[str]) -> None:
    """Resolve the subcircuit library once in the parent before a pool
    spawns, then publish its tensors over shared memory and add the
    segment to ``segments``.  Fork-started children inherit the live
    object; spawn/forkserver children attach the published segment
    zero-copy through :func:`_worker_initializer` (falling back to the
    persistent disk artifact, then to a characterization) — either way
    no worker re-runs the characterization.  Publishing is best-effort:
    a shm-less platform degrades to the pre-shm behaviour."""
    from ..scl.library import default_scl
    from ..shm.scl import publish_default_scl

    default_scl()
    name = publish_default_scl()
    if name is not None and name not in segments:
        segments.append(name)


def _worker_initializer(shm_segments: Sequence[str] = ()) -> None:
    """Pool-worker startup hook: attach the parent's published
    shared-memory tensors, then make sure an SCL is resolved before the
    first job lands, so per-job latencies measure compilation, not
    characterization.

    Resolution order for the SCL: the shared-memory segment the parent
    published (zero-copy tensor attach, sub-millisecond), then the
    persistent disk artifact (or the live object inherited under
    fork), then a lazy characterization on first use.  Published net
    views are armed for :func:`repro.rtl.netview.net_view` to hydrate
    on demand.  A worker that cannot preload still works, but says so
    once (this hook runs once per process), because a misconfigured
    cache dir showing up as a uniform slowdown is the kind of mystery
    that eats an afternoon.

    A forked worker also inherits its parent's Python-level SIGTERM
    handler (``repro serve`` installs one to shut down cleanly); the
    default action is restored so the watchdog's terminate still kills
    a hung worker."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        from ..shm.netview import install_attachments

        install_attachments(shm_segments)
    except Exception:
        pass
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
