"""Fault-tolerant batch execution: fault harness, retry policy,
watchdog, journal/resume, quarantine — and the chaos acceptance sweep.

Every pool-level scenario here is scripted through the deterministic
``$REPRO_FAULTS`` harness (:mod:`repro.batch.faults`): a fault draw is
a pure function of (seed, kind, job key, attempt), so the parent, the
workers and this test file all agree on exactly which jobs die, hang
or retry.  ``kind:1.0:first`` is the idiom for "fail attempt 1, then
succeed" — the scripted version of a transient failure.
"""

from __future__ import annotations

import gc
import json
import warnings

import pytest

from repro.batch.cache import ResultCache, cache_corruption_count
from repro.batch.engine import BatchCompiler, _worker_initializer
from repro.batch.faults import (
    CRASH_EXIT_CODE,
    FaultInjected,
    FaultPlan,
    active_plan,
)
from repro.batch.jobs import CompileJob
from repro.batch.resilience import (
    TERMINAL_STATUSES,
    RetryPolicy,
    SweepJournal,
    new_run_id,
)
from repro.batch.cache import log_dir
from repro.cli import main as cli_main
from repro.errors import BatchError, SpecificationError
from repro.options import CompileOptions
from repro.spec import INT4, MacroSpec

KEY = "ab" * 32  # a well-formed job key for direct cache/plan calls


def _small_spec(**overrides) -> MacroSpec:
    base = dict(
        height=8,
        width=8,
        mcr=2,
        input_formats=(INT4,),
        weight_formats=(INT4,),
        mac_frequency_mhz=400.0,
    )
    base.update(overrides)
    return MacroSpec(**base)


def _specs(n: int):
    """n distinct, fast-to-compile specs (search only, no implement)."""
    return [
        _small_spec(mac_frequency_mhz=200.0 + 25.0 * i) for i in range(n)
    ]


def _arm(monkeypatch, faults: str, seed: int = 0, hang_s: float = 30.0):
    monkeypatch.setenv("REPRO_FAULTS", faults)
    monkeypatch.setenv("REPRO_FAULT_SEED", str(seed))
    monkeypatch.setenv("REPRO_FAULT_HANG_S", str(hang_s))


def _strip_bookkeeping(record: dict) -> dict:
    """Everything that may legitimately differ between a chaos run and
    a fault-free run of the same job."""
    return {
        k: v
        for k, v in record.items()
        if k
        not in (
            "cached",
            "resumed",
            "job_key",
            "elapsed_s",
            "attempts",
            "retry_history",
        )
    }


# -- fault plan grammar and determinism --------------------------------------


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse(
            "crash:0.2, hang:0.1:first ,corrupt_cache:1", seed=7
        )
        assert plan.rules["crash"].probability == 0.2
        assert plan.rules["hang"].first_attempt_only
        assert not plan.rules["crash"].first_attempt_only
        assert plan.rules["corrupt_cache"].probability == 1.0
        assert plan.seed == 7
        assert "crash:0.2" in plan.describe()

    @pytest.mark.parametrize(
        "text",
        [
            "explode:0.5",  # unknown kind
            "crash",  # missing probability
            "crash:maybe",  # unparsable probability
            "crash:1.5",  # out of range
            "crash:-0.1",  # out of range
            "crash:0.5:always",  # unknown limiter
            "crash:0.5:first:x",  # too many fields
        ],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(SpecificationError):
            FaultPlan.parse(text)

    def test_draws_deterministic_across_instances(self):
        a = FaultPlan.parse("crash:0.5", seed=3)
        b = FaultPlan.parse("crash:0.5", seed=3)
        keys = [f"{i:02d}" * 32 for i in range(64)]
        assert [a.should("crash", k) for k in keys] == [
            b.should("crash", k) for k in keys
        ]
        # ... and actually mixed — a 0.5 rule over 64 keys that fired
        # never or always would mean the draw is broken.
        fired = sum(a.should("crash", k) for k in keys)
        assert 0 < fired < 64

    def test_seed_changes_draws(self):
        keys = [f"{i:02d}" * 32 for i in range(64)]
        a = [FaultPlan.parse("crash:0.5", seed=1).should("crash", k) for k in keys]
        b = [FaultPlan.parse("crash:0.5", seed=2).should("crash", k) for k in keys]
        assert a != b

    def test_probability_bounds(self):
        always = FaultPlan.parse("crash:1.0")
        never = FaultPlan.parse("crash:0.0")
        for i in range(8):
            key = f"{i:02d}" * 32
            assert always.should("crash", key)
            assert not never.should("crash", key)

    def test_first_limiter_pins_to_attempt_one(self):
        plan = FaultPlan.parse("crash:1.0:first")
        assert plan.should("crash", KEY, attempt=1)
        assert not plan.should("crash", KEY, attempt=2)

    def test_attempt_part_of_draw(self):
        """A probabilistic fault need not recur on retry — the attempt
        number feeds the hash, so retries get fresh draws."""
        plan = FaultPlan.parse("crash:0.5", seed=0)
        keys = [f"{i:02d}" * 32 for i in range(64)]
        a1 = [plan.should("crash", k, 1) for k in keys]
        a2 = [plan.should("crash", k, 2) for k in keys]
        assert a1 != a2

    def test_planned_mirrors_worker_order(self):
        plan = FaultPlan.parse("crash:1.0,hang:1.0,raise:1.0")
        assert plan.planned(KEY, 1) == "crash"  # crash wins the race
        assert FaultPlan.parse("raise:1.0").planned(KEY, 1) == "raise"
        assert FaultPlan.parse("corrupt_cache:1.0").planned(KEY, 1) is None
        assert FaultPlan.parse("crash:0.0").planned(KEY, 1) is None

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE == 70

    def test_active_plan_tracks_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert active_plan() is None
        _arm(monkeypatch, "crash:0.25", seed=9)
        plan = active_plan()
        assert plan is not None
        assert plan.rules["crash"].probability == 0.25
        assert plan.seed == 9
        monkeypatch.delenv("REPRO_FAULTS")
        assert active_plan() is None

    def test_active_plan_malformed_warns_and_disarms(self, monkeypatch):
        """A worker must never die to a typo'd environment."""
        monkeypatch.setenv("REPRO_FAULTS", "explode:banana")
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert active_plan() is None


# -- retry policy ------------------------------------------------------------


class TestRetryPolicy:
    def test_default_matches_historical_one_retry(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 2
        assert policy.delay(1) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=0),
            dict(backoff_s=-1.0),
            dict(jitter=-0.5),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_exponential_backoff(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.5)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0
        assert policy.delay(3) == 2.0

    def test_jitter_bounded(self):
        policy = RetryPolicy(max_attempts=2, backoff_s=1.0, jitter=0.2)
        for _ in range(32):
            assert 1.0 <= policy.delay(1) <= 1.2


# -- write-ahead journal ------------------------------------------------------


class TestSweepJournal:
    def test_roundtrip(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.begin(total=3, unique=2)
        journal.submit(["k1", "k2"])
        journal.done("k1", {"status": "ok", "power_mw": 1.0})
        journal.done("k2", {"status": "error", "error": "boom"})
        journal.close()
        loaded = SweepJournal.load(tmp_path, journal.run_id)
        assert loaded == {
            "k1": {"status": "ok", "power_mw": 1.0},
            "k2": {"status": "error", "error": "boom"},
        }

    def test_unknown_run_id_raises(self, tmp_path):
        with pytest.raises(BatchError, match="unknown run id"):
            SweepJournal.load(tmp_path, "20990101-000000-abcdef")

    def test_torn_tail_tolerated(self, tmp_path):
        """A kill -9 mid-write leaves a torn final line; load keeps
        everything before it."""
        journal = SweepJournal(tmp_path)
        journal.done("k1", {"status": "ok"})
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "done", "key": "k2", "rec')  # torn
        loaded = SweepJournal.load(tmp_path, journal.run_id)
        assert loaded == {"k1": {"status": "ok"}}

    def test_unwritable_root_degrades_silently(self, tmp_path):
        """A full disk must never abort the sweep the journal was
        protecting."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the journal dir should go")
        journal = SweepJournal(blocker)  # mkdir under a file fails
        journal.begin(total=1, unique=1)
        journal.done("k1", {"status": "ok"})
        journal.close()
        assert not log_dir(blocker).exists()

    def test_run_ids_unique(self):
        assert new_run_id() != new_run_id()


# -- cache corruption quarantine ---------------------------------------------


def _damage_last_line(path) -> bytes:
    """Flip one byte inside the record of a segment's last line, in
    place (the line keeps its length); returns the damaged bytes."""
    data = bytearray(path.read_bytes())
    data[-20] ^= 0x01
    path.write_bytes(bytes(data))
    return bytes(data)


class TestCacheQuarantine:
    def test_corrupt_record_quarantined_and_counted(self, tmp_path):
        key = "fa" * 32
        cache = ResultCache(tmp_path)
        cache.put(key, {"status": "ok"})
        (segment,) = log_dir(tmp_path).iterdir()
        damaged = _damage_last_line(segment)
        before = cache_corruption_count()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(key) is None
        assert cache.stats.corruptions == 1
        assert cache_corruption_count() == before + 1
        # The evidence stays where it was, counted but not served; the
        # key is writable again (miss -> recompile -> append).
        assert segment.read_bytes() == damaged
        assert cache.entry_count() == 0
        assert cache.occupancy()["quarantined"] == 1
        cache.put(key, {"status": "ok", "v": 2})
        assert cache.get(key) == {"status": "ok", "v": 2}
        assert cache.get(key) == {"status": "ok", "v": 2}
        assert cache_corruption_count() == before + 1  # counted once

    def test_os_level_miss_is_not_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(KEY) is None  # plain miss
        assert cache.stats.corruptions == 0

    def test_corrupt_cache_fault_truncates_on_put(
        self, tmp_path, monkeypatch
    ):
        """The chaos hook damages the stored line in place so the
        *next* lookup exercises the quarantine path end to end."""
        key = "fb" * 32
        _arm(monkeypatch, "corrupt_cache:1.0")
        cache = ResultCache(tmp_path)
        cache.put(key, {"status": "ok", "power_mw": 1.25})
        monkeypatch.delenv("REPRO_FAULTS")
        (segment,) = log_dir(tmp_path).iterdir()
        size = segment.stat().st_size
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(key) is None
        assert cache.stats.corruptions == 1
        assert segment.stat().st_size == size  # damaged, not truncated

    def test_corrupt_cache_fault_respects_probability_zero(
        self, tmp_path, monkeypatch
    ):
        _arm(monkeypatch, "corrupt_cache:0.0")
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"status": "ok"})
        assert cache.get(KEY) == {"status": "ok"}


# -- engine: watchdog timeouts ------------------------------------------------


class TestWatchdog:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(SpecificationError, match="positive"):
            CompileOptions(job_timeout_s=0)

    def test_hang_timed_out_then_retried_to_ok(self, tmp_path, monkeypatch):
        """Every job hangs on attempt 1 (past the watchdog deadline),
        its worker is killed, and it succeeds on the retry in a fresh
        worker — ok records carrying the timeout in their history."""
        _arm(monkeypatch, "hang:1.0:first", hang_s=30.0)
        engine = BatchCompiler(
            jobs=2,
            cache_dir=tmp_path,
            options=CompileOptions(job_timeout_s=1.5),
        )
        batch = engine.compile_specs(_specs(2), implement=False)
        assert [r["status"] for r in batch.records] == ["ok", "ok"]
        for record in batch.records:
            assert record["attempts"] == 2
            (entry,) = record["retry_history"]
            assert entry["outcome"] == "timeout"
            assert entry["fault"] == "hang"
            assert "watchdog" in entry["reason"]
        assert batch.stats.retried == 2
        assert batch.stats.timeouts == 0  # retries recovered them all
        # Two workers, each killed once and replaced for its retry.
        assert batch.stats.worker_spawns == 4

    def test_persistent_hang_becomes_timeout_record(
        self, tmp_path, monkeypatch
    ):
        """A job that hangs on every attempt exhausts its budget and
        terminates as a ``timeout`` record — never a lost job, never a
        wedged sweep."""
        _arm(monkeypatch, "hang:1.0", hang_s=30.0)
        engine = BatchCompiler(
            jobs=2,
            cache_dir=tmp_path,
            options=CompileOptions(job_timeout_s=0.75, retries=1),
        )
        batch = engine.compile_specs(_specs(1), implement=False)
        (record,) = batch.records
        assert record["status"] == "timeout"
        assert record["attempts"] == 2
        assert len(record["retry_history"]) == 2
        assert record["fault"] == "hang"
        assert batch.stats.timeouts == 1
        assert "timeouts 1" in batch.stats.cache_line()
        assert "1 timed out" in batch.describe()
        # Timeouts are transient verdicts about this run's environment,
        # never cached as the job's result.
        assert (
            BatchCompiler(jobs=1, cache_dir=tmp_path).cache.get(
                CompileJob(
                    _specs(1)[0], CompileOptions(implement=False)
                ).key()
            )
            is None
        )


# -- engine: worker-death recovery ------------------------------------------


class TestPoolBreakRecovery:
    def test_mid_sweep_break_retried_to_ok(self, tmp_path, monkeypatch):
        """(a) Workers crash (os._exit) on attempt 1; each dead worker
        is replaced and the retry succeeds."""
        _arm(monkeypatch, "crash:1.0:first")
        engine = BatchCompiler(jobs=2, cache_dir=tmp_path)
        batch = engine.compile_specs(_specs(2), implement=False)
        assert [r["status"] for r in batch.records] == ["ok", "ok"]
        for record in batch.records:
            assert record["attempts"] == 2
            (entry,) = record["retry_history"]
            assert entry["outcome"] == "error"
            assert entry["fault"] == "crash"
        assert batch.stats.retried == 2
        assert "retried 2" in batch.stats.cache_line()
        # Two workers, each replaced after its crash.
        assert batch.stats.worker_spawns == 4

    def test_repeated_break_exhausts_budget(self, tmp_path, monkeypatch):
        """(b) A job that kills its worker on every attempt becomes a
        ``worker died`` error record after the budget runs out."""
        _arm(monkeypatch, "crash:1.0")
        engine = BatchCompiler(
            jobs=2,
            cache_dir=tmp_path,
            options=CompileOptions(retries=1),
        )
        batch = engine.compile_specs(_specs(2), implement=False)
        for record in batch.records:
            assert record["status"] == "error"
            assert "worker died" in record["error"]
            assert record["attempts"] == 2
            assert record["fault"] == "crash"
            assert len(record["retry_history"]) == 2
        assert batch.stats.failed == 2
        # Worker-death verdicts are environmental, never cached.
        assert BatchCompiler(jobs=1, cache_dir=tmp_path).cache.get(
            CompileJob(_specs(2)[0], CompileOptions(implement=False)).key()
        ) is None

    def test_crash_culprit_does_not_burn_poolmates_budget(
        self, tmp_path, monkeypatch
    ):
        """One repeat-crasher among many healthy jobs: the parent knows
        which job the dead worker held, so only the crasher is charged
        and its pool-mates never see a retry."""
        specs = _specs(6)
        jobs = [CompileJob(s, CompileOptions(implement=False)) for s in specs]

        def crashes(seed, job):
            return any(
                FaultPlan.parse("crash:0.15", seed=seed).should(
                    "crash", job.key(), attempt
                )
                for attempt in (1, 2)
            )

        # Pick a seed under which exactly one key crashes at p=0.15.
        seed = next(
            seed
            for seed in range(64)
            if sum(crashes(seed, j) for j in jobs) == 1
        )
        _arm(monkeypatch, "crash:0.15", seed=seed)
        engine = BatchCompiler(
            jobs=2,
            cache_dir=tmp_path,
            options=CompileOptions(retries=1),
        )
        batch = engine.compile_specs(specs, implement=False)
        healthy = [
            record
            for job, record in zip(jobs, batch.records)
            if not crashes(seed, job)
        ]
        assert len(healthy) == 5
        for record in healthy:
            assert record["status"] == "ok"
            assert "attempts" not in record
            assert "retry_history" not in record

    def test_single_future_raise_with_pool_alive(
        self, tmp_path, monkeypatch
    ):
        """(c) A job function that raises with its worker alive — the
        injected :class:`FaultInjected` escapes the worker's record
        machinery — is charged and retried without a worker restart."""
        _arm(monkeypatch, "raise:1.0:first")
        engine = BatchCompiler(jobs=2, cache_dir=tmp_path)
        batch = engine.compile_specs(_specs(2), implement=False)
        assert [r["status"] for r in batch.records] == ["ok", "ok"]
        for record in batch.records:
            assert record["attempts"] == 2
            (entry,) = record["retry_history"]
            assert entry["fault"] == "raise"
            assert "FaultInjected" in entry["reason"]

    def test_persistent_raise_exhausts_budget(self, tmp_path, monkeypatch):
        _arm(monkeypatch, "raise:1.0")
        engine = BatchCompiler(
            jobs=2,
            cache_dir=tmp_path,
            options=CompileOptions(retries=1),
        )
        batch = engine.compile_specs(_specs(2), implement=False)
        for record in batch.records:
            assert record["status"] == "error"
            assert record["attempts"] == 2
            assert "injected worker fault" in record["error"]

    def test_fault_injected_is_a_runtime_error(self):
        assert issubclass(FaultInjected, RuntimeError)


# -- engine: crash-safe resume ------------------------------------------------


class _AbortAfter(Exception):
    """Stand-in for a kill: raised from the progress callback after N
    records, unwinding run_jobs mid-sweep with the journal flushed."""


class TestResume:
    def _abort_progress(self, after: int):
        seen = {"n": 0}

        def progress(done, total, record):
            seen["n"] += 1
            if seen["n"] >= after:
                raise _AbortAfter()

        return progress

    def test_resume_recompiles_only_the_remainder(self, tmp_path):
        """Kill a sweep after 3 of 8 records; ``resume=<run id>``
        serves those 3 from the journal (not the cache — it is
        disabled) and compiles exactly the other 5."""
        specs = _specs(8)
        engine = BatchCompiler(
            jobs=1,
            use_cache=False,
            cache_dir=tmp_path,  # journal root only
            progress=self._abort_progress(3),
        )
        run_id = engine.run_id
        assert run_id is not None
        with pytest.raises(_AbortAfter):
            engine.compile_specs(specs, implement=False)

        journal_text = (log_dir(tmp_path) / f"{run_id}.jsonl").read_text()
        events = [json.loads(line) for line in journal_text.splitlines()]
        assert sum(len(e.get("keys", ())) for e in events) == 8
        assert sum(e["event"] == "done" for e in events) == 3
        # use_cache=False: the journal keeps the records, not the store.
        assert not any(e.get("cacheable") for e in events)

        resumed = BatchCompiler(
            jobs=1, use_cache=False, cache_dir=tmp_path, resume=run_id
        )
        assert resumed.run_id == run_id
        batch = resumed.compile_specs(specs, implement=False)
        assert batch.stats.resumed == 3
        assert batch.stats.compiled == 5
        assert batch.stats.cache_hits == 0
        assert "resumed 3" in batch.stats.cache_line()
        assert len(batch.records) == 8
        assert all(r["status"] == "ok" for r in batch.records)
        assert sum(bool(r.get("resumed")) for r in batch.records) == 3

    def test_resumed_records_match_fresh_compiles(self, tmp_path):
        """What the journal replays is the record the sweep produced."""
        specs = _specs(4)
        engine = BatchCompiler(
            jobs=1,
            use_cache=False,
            cache_dir=tmp_path,
            progress=self._abort_progress(2),
        )
        run_id = engine.run_id
        with pytest.raises(_AbortAfter):
            engine.compile_specs(specs, implement=False)
        batch = BatchCompiler(
            jobs=1, use_cache=False, cache_dir=tmp_path, resume=run_id
        ).compile_specs(specs, implement=False)
        fresh = BatchCompiler(jobs=1, use_cache=False).compile_specs(
            specs, implement=False
        )
        for resumed_rec, fresh_rec in zip(batch.records, fresh.records):
            assert _strip_bookkeeping(resumed_rec) == _strip_bookkeeping(
                fresh_rec
            )

    def test_unknown_resume_id_fails_loudly(self, tmp_path):
        engine = BatchCompiler(
            jobs=1, cache_dir=tmp_path, resume="20990101-000000-abcdef"
        )
        with pytest.raises(BatchError, match="unknown run id"):
            engine.compile_specs(_specs(1), implement=False)

    def test_resume_without_journal_root_rejected(self):
        with pytest.raises(BatchError, match="journal root"):
            BatchCompiler(jobs=1, use_cache=False, resume="x")

    def test_no_journal_without_cache_root(self):
        """``use_cache=False`` with no cache_dir (the benchmark path)
        must not surprise-write a journal under the home directory."""
        engine = BatchCompiler(jobs=1, use_cache=False)
        assert engine.run_id is None


# -- worker warnings (satellite: no more silent bare excepts) ----------------


class TestWorkerWarnings:
    def test_initializer_warns_when_preload_fails(self, monkeypatch):
        import repro.scl.library as library
        import repro.shm.scl as shm_scl

        def broken_scl(*args, **kwargs):
            raise OSError("cache dir vanished")

        monkeypatch.setattr(library, "default_scl", broken_scl)
        # A published shm segment (e.g. from an earlier test in this
        # process) would satisfy the worker without touching the broken
        # resolver — force the attach to miss.
        monkeypatch.setattr(
            shm_scl, "attach_default_scl", lambda *a, **k: None
        )
        with pytest.warns(RuntimeWarning, match="could not preload"):
            _worker_initializer()

    def test_corner_prewarm_warns_once(self, monkeypatch):
        import repro.batch.engine as engine_mod
        import repro.signoff.corners as corners

        def broken(*args, **kwargs):
            raise OSError("corner cache unwritable")

        monkeypatch.setattr(corners, "worst_corner_scl", broken)
        monkeypatch.setattr(engine_mod, "_PREWARM_WARNED", False)
        options = CompileOptions(implement=False, corners="signoff3")
        with pytest.warns(RuntimeWarning, match="prewarm failed"):
            engine_mod._prewarm_corners(options)
        # The latch makes it once per process, not once per sweep.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine_mod._prewarm_corners(options)


# -- CLI ---------------------------------------------------------------------


class TestResilienceCLI:
    def _argv(self, tmp_path, *extra):
        return [
            "sweep",
            "--height", "8",
            "--width", "8",
            "--formats", "INT4",
            "--frequency", "200:350:+50",
            "--no-implement",
            "--no-summary",
            "-j", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(tmp_path / "out.jsonl"),
            *extra,
        ]

    def test_sweep_prints_resume_handle_up_front(self, tmp_path, capsys):
        assert cli_main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "--resume" in out
        assert "run " in out

    def test_resume_happy_path(self, tmp_path, capsys):
        assert cli_main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        run_id = next(
            line.split()[1]
            for line in out.splitlines()
            if line.startswith("run ")
        )
        assert (
            cli_main(self._argv(tmp_path, "--resume", run_id)) == 0
        )
        out = capsys.readouterr().out
        assert f"resuming run {run_id}" in out
        assert "resumed 4" in out
        assert "compiled 0" in out

    def test_resume_unknown_id_errors(self, tmp_path, capsys):
        (tmp_path / "cache").mkdir()
        rc = cli_main(
            self._argv(tmp_path, "--resume", "20990101-000000-abcdef")
        )
        assert rc == 1
        assert "unknown run id" in capsys.readouterr().err

    def test_malformed_fault_env_fails_loudly(
        self, tmp_path, capsys, monkeypatch
    ):
        """A typo'd chaos spec must not run a clean sweep that
        "passes" — the CLI validates at arm time, before it opens
        ``--output``: the results already there keep their bytes and
        no file is left open."""
        out = tmp_path / "out.jsonl"
        out.write_text('{"status": "ok"}\n')
        monkeypatch.setenv("REPRO_FAULTS", "explode:0.5")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli_main(self._argv(tmp_path))
            gc.collect()
        assert rc == 1
        assert "REPRO_FAULTS" in capsys.readouterr().err
        assert not [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ]
        assert out.read_text() == '{"status": "ok"}\n'

    def test_armed_faults_announced(self, tmp_path, capsys, monkeypatch):
        _arm(monkeypatch, "raise:0.0", seed=5)
        assert cli_main(self._argv(tmp_path)) == 0
        assert "faults armed (raise:0" in capsys.readouterr().out

    def test_job_timeout_flag_drives_watchdog(
        self, tmp_path, capsys, monkeypatch
    ):
        _arm(monkeypatch, "hang:1.0", hang_s=30.0)
        rc = cli_main(
            self._argv(
                tmp_path,
                "--job-timeout", "0.75",
                "--retries", "0",
                "-j", "2",
                "--frequency", "200",
            )
        )
        out = capsys.readouterr().out
        assert rc == 1  # a timed-out sweep is not a clean exit
        assert "1 timed out" in out
        record = json.loads(
            (tmp_path / "out.jsonl").read_text().splitlines()[0]
        )
        assert record["status"] == "timeout"


# -- chaos acceptance ---------------------------------------------------------


class TestChaosAcceptance:
    def test_seeded_chaos_sweep_terminates_and_matches_clean_run(
        self, tmp_path, monkeypatch
    ):
        """The acceptance gate: a 32-point sweep under seeded crash +
        hang + cache-corruption faults completes with every record
        terminal (no lost jobs, no wedge), and its ``ok`` records are
        bit-identical (modulo retry bookkeeping) to a fault-free run
        of the same grid."""
        specs = [
            _small_spec(
                height=h, width=w, mac_frequency_mhz=200.0 + 50.0 * i
            )
            for h in (8, 16)
            for w in (8, 16)
            for i in range(8)
        ]
        assert len(specs) == 32

        _arm(
            monkeypatch,
            "crash:0.2,hang:0.1,corrupt_cache:0.1",
            seed=11,
            hang_s=30.0,
        )
        chaos = BatchCompiler(
            jobs=4,
            cache_dir=tmp_path / "chaos-cache",
            options=CompileOptions(job_timeout_s=2.0, retries=2),
        ).compile_specs(specs, implement=False)

        assert len(chaos.records) == 32  # no lost jobs
        for record in chaos.records:
            assert record["status"] in TERMINAL_STATUSES
        # The seed is chosen so the sweep actually hurts: at least one
        # retry happened, or the harness proved nothing.
        assert chaos.stats.retried > 0

        monkeypatch.delenv("REPRO_FAULTS")
        clean = BatchCompiler(
            jobs=2, cache_dir=tmp_path / "clean-cache"
        ).compile_specs(specs, implement=False)
        assert all(r["status"] == "ok" for r in clean.records)

        compared = 0
        for chaos_rec, clean_rec in zip(chaos.records, clean.records):
            if chaos_rec["status"] != "ok":
                continue
            compared += 1
            assert _strip_bookkeeping(chaos_rec) == _strip_bookkeeping(
                clean_rec
            )
        assert compared > 0

    def test_chaos_survivors_cached_pure(self, tmp_path, monkeypatch):
        """Records cached during a chaos run carry no retry bookkeeping
        — a later cache hit is indistinguishable from a fault-free
        compile's."""
        _arm(monkeypatch, "crash:1.0:first")
        chaos = BatchCompiler(
            jobs=2, cache_dir=tmp_path
        ).compile_specs(_specs(2), implement=False)
        assert all(r["attempts"] == 2 for r in chaos.records)

        monkeypatch.delenv("REPRO_FAULTS")
        cached = BatchCompiler(jobs=1, cache_dir=tmp_path).compile_specs(
            _specs(2), implement=False
        )
        assert cached.stats.cache_hits == 2
        for record in cached.records:
            assert "attempts" not in record
            assert "retry_history" not in record
