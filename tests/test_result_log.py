"""The result log: one append-only segment per run is both the result
store and the run's write-ahead journal.

Exact encode/write counts for a pooled sweep, the index build over a
1,200-record store, thread safety, compaction, the size budget against
live runs and against hit sets larger than itself, quarantine counted
from disk, sealing, a seeded fuzz of the segment and index readers and
a real ``kill -9`` of a running sweep.  ``make chaos`` runs this file
beside ``tests/test_resilience.py``.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc


from repro.batch import cache as cache_mod
from repro.batch.cache import (
    ResultCache,
    SegmentWriter,
    cache_corruption_count,
    encode_line,
    log_dir,
    write_index,
)
from repro.batch.engine import BatchCompiler
from repro.batch.resilience import SweepJournal, prune_journals
from repro.cli import main as cli_main
from repro.options import CompileOptions
from repro.spec import INT4, MacroSpec

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_search.jsonl"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
SEARCH_ONLY = CompileOptions(implement=False)


def _golden_records():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line)["record"] for line in fh]


def _specs(n: int):
    return [
        MacroSpec(
            height=8, width=8, mcr=2, input_formats=(INT4,),
            weight_formats=(INT4,), mac_frequency_mhz=200.0 + 10.0 * i,
        )
        for i in range(n)
    ]


def _events(root) -> list:
    return [
        json.loads(line)
        for path in sorted(log_dir(root).glob("*.jsonl"))
        for line in path.read_bytes().splitlines()
    ]


def _strip(record: dict) -> dict:
    drop = ("cached", "resumed", "job_key", "elapsed_s", "attempts", "retry_history")
    return {k: v for k, v in record.items() if k not in drop}


# -- one encode, one write ------------------------------------------------------


class TestOneWrite:
    def test_cold_pooled_run_encodes_and_writes_each_record_once(
        self, tmp_path, monkeypatch
    ):
        """A clean pooled cold run of N points JSON-encodes each record
        once in the parent, creates exactly one segment (and, once it
        completes, the segment's index file: no per-record file) and
        appends exactly N ``done`` lines — plus its ``begin`` and one
        ``submit``; an all-hit pass encodes nothing and appends no
        ``done`` line."""
        n = 6
        encoded, appends = [], []
        real_dumps, real_append = json.dumps, SegmentWriter.append

        def dumps(obj, *args, **kwargs):
            if isinstance(obj, dict) and "status" in obj:
                encoded.append(obj["spec_hash"])
            return real_dumps(obj, *args, **kwargs)

        def append(writer, data):
            appends.append(data.count(b"\n"))
            return real_append(writer, data)

        monkeypatch.setattr(json, "dumps", dumps)
        monkeypatch.setattr(SegmentWriter, "append", append)
        engine = BatchCompiler(jobs=2, cache_dir=tmp_path, options=SEARCH_ONLY)
        cold = engine.compile_specs(_specs(n))
        assert cold.stats.compiled == n and cold.stats.worker_spawns == 2
        assert sorted(encoded) == sorted(r["spec_hash"] for r in cold.records)
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        segment = log_dir(tmp_path) / f"{engine.run_id}.jsonl"
        assert files == [segment.with_suffix(".idx"), segment]
        assert appends == [1, 1] + [1] * n  # begin, submit, n done lines
        done = [e for e in _events(tmp_path) if e["event"] == "done"]
        assert len(done) == n and all(e["cacheable"] for e in done)

        encoded.clear()
        warm = BatchCompiler(jobs=2, cache_dir=tmp_path, options=SEARCH_ONLY)
        hits = warm.compile_specs(_specs(n))
        assert hits.stats.cache_hits == n and hits.stats.compiled == 0
        assert encoded == []
        assert sum(e["event"] == "done" for e in _events(tmp_path)) == n
        for got, want in zip(hits.records, cold.records):
            assert _strip(got) == _strip(want)

    def test_retry_bookkeeping_rides_beside_the_record(self, tmp_path):
        """``--resume`` gets the record back with its bookkeeping; the
        store serves the record a fault-free run would have produced."""
        store = ResultCache(tmp_path)
        journal = SweepJournal(tmp_path, store=store)
        record = {"status": "ok", "power_mw": 1.5}
        history = [{"attempt": 1, "outcome": "pool-break", "reason": "crash"}]
        journal.done("ab" * 32, dict(record, attempts=2, retry_history=history), True)
        journal.done("cd" * 32, {"status": "error", "error": "boom"}, False)
        journal.close()
        assert SweepJournal.load(tmp_path, journal.run_id) == {
            "ab" * 32: dict(record, attempts=2, retry_history=history),
            "cd" * 32: {"status": "error", "error": "boom"},
        }
        assert ResultCache(tmp_path).get("ab" * 32) == record
        assert ResultCache(tmp_path).get("cd" * 32) is None  # not cacheable
        assert store.stats.stores == 1


# -- the index ------------------------------------------------------------------


class TestIndex:
    def test_index_build_streams_a_1200_record_store(self, tmp_path):
        """1,200 golden-shaped records (about 4 MB): the index build
        reads an unsealed segment in bounded chunks and takes at most
        10 ms; once the segment is sealed, its index file is loaded
        instead, which is cheaper still."""
        records = _golden_records()
        keys = [f"{i:064x}" for i in range(1200)]
        journal = SweepJournal(tmp_path, store=ResultCache(tmp_path))
        for i, key in enumerate(keys):
            journal.done(key, records[i % len(records)], True)
        journal.close()
        size = sum(p.stat().st_size for p in log_dir(tmp_path).iterdir())
        assert 3e6 < size < 6e6

        tracemalloc.start()
        try:
            ResultCache(tmp_path).entry_count()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size / 4, "the build must stream, not read whole segments"

        builds = []
        for _ in range(5):
            store = ResultCache(tmp_path)
            started = time.perf_counter()
            assert store.entry_count() == 1200
            builds.append(time.perf_counter() - started)
        assert min(builds) < 0.010, builds
        store = ResultCache(tmp_path)
        for i in (0, 599, 1199):
            assert store.get(keys[i]) == records[i % len(records)]

        write_index(journal.path)  # what a completed run's seal does
        loads = []
        for _ in range(5):
            store = ResultCache(tmp_path)
            started = time.perf_counter()
            assert store.entry_count() == 1200
            loads.append(time.perf_counter() - started)
        assert min(loads) < min(builds), (loads, builds)
        for i in (0, 599, 1199):
            assert store.get(keys[i]) == records[i % len(records)]

    def test_miss_refreshes_from_segments_that_grew(self, tmp_path):
        reader = ResultCache(tmp_path)
        assert reader.get("aa" * 32) is None
        writer = ResultCache(tmp_path)
        writer.put("aa" * 32, {"v": 1})
        assert reader.get("aa" * 32) == {"v": 1}
        writer.put("bb" * 32, {"v": 2})  # same segment, grown
        assert reader.get("bb" * 32) == {"v": 2}

    def test_miss_on_a_quiet_log_does_not_list_it(self, tmp_path, monkeypatch):
        """A miss lists the log directory again only when it may have
        changed: a large, quiet store's misses cost no directory scan,
        and a segment added later is still found."""
        ResultCache(tmp_path).put("aa" * 32, {"v": 1})
        log = log_dir(tmp_path)
        past = time.time() - 10
        os.utime(log, (past, past))
        store = ResultCache(tmp_path)
        assert store.get("aa" * 32) == {"v": 1}
        listed = []
        real_listdir = os.listdir
        monkeypatch.setattr(
            os, "listdir", lambda path: listed.append(path) or real_listdir(path)
        )
        for i in range(20):
            assert store.get(f"{i:064x}") is None
        assert listed == []
        ResultCache(tmp_path).put("bb" * 32, {"v": 2})  # a new segment
        assert store.get("bb" * 32) == {"v": 2}
        assert len(listed) == 1

    def test_segment_compacted_elsewhere_is_forgotten(self, tmp_path):
        """Another process prunes the segment a reader holds open: the
        reader's next refresh releases it and finds the carried copy."""
        ResultCache(tmp_path).put("aa" * 32, {"v": 1})
        reader = ResultCache(tmp_path)
        assert reader.get("aa" * 32) == {"v": 1}
        (old,) = reader._readers
        assert [p.name for p in prune_journals(tmp_path, keep=0)] == [old]
        assert reader.get("bb" * 32) is None  # a miss refreshes
        assert old not in reader._readers
        assert reader.get("aa" * 32) == {"v": 1}

    def test_http_thread_gets_and_dispatcher_puts_stay_safe(self, tmp_path):
        """The service's shape: lookups from several request threads
        while one dispatcher thread writes through the attached journal
        (and a ``put`` thread through the same segment)."""
        store = ResultCache(tmp_path)
        journal = SweepJournal(tmp_path, store=store)
        records = {
            f"{i:064x}": {"status": "ok", "i": i, "pad": "x" * (40 * (i % 50))}
            for i in range(400)
        }
        keys = list(records)
        errors, stop = [], threading.Event()

        def lookups(seed: int) -> None:
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    key = rng.choice(keys)
                    got = store.get(key)
                    assert got is None or got == records[key]
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        def writes(part) -> None:
            try:
                for key in part:
                    if int(key, 16) % 2:
                        journal.done(key, records[key], True)
                    else:
                        store.put(key, records[key])
            except BaseException as exc:
                errors.append(exc)

        readers = [threading.Thread(target=lookups, args=(i,)) for i in range(4)]
        writers = [threading.Thread(target=writes, args=(keys[i::2],)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside the store
        try:
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(60)
            stop.set()
            for thread in readers:
                thread.join(60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        journal.close()
        assert not any(thread.is_alive() for thread in readers + writers)
        assert errors == []
        assert store.stats.stores == len(records)  # no lost update
        assert all(store.get(key) == record for key, record in records.items())
        assert store.stats.corruptions == 0
        assert ResultCache(tmp_path).entry_count() == len(records)


# -- compaction -----------------------------------------------------------------


class TestCompaction:
    def test_prune_carries_live_entries_and_keeps_damaged_segments(self, tmp_path):
        runs = []
        for r in range(3):
            journal = SweepJournal(tmp_path, run_id=f"run-{r}", store=ResultCache(tmp_path))
            journal.begin(total=2, unique=2)
            for k in range(2):
                journal.done(f"{r}{k}" * 32, {"status": "ok", "run": r, "k": k}, True)
            journal.done(f"e{r}" * 32, {"status": "error"}, False)
            journal.close()
            stamp = time.time() - 1000 * (3 - r)
            os.utime(journal.path, (stamp, stamp))
            runs.append(journal.path)
        damaged = bytearray(runs[1].read_bytes())
        damaged[damaged.index(b'"begin"') + 2] ^= 0x20  # flip a byte of run-1's begin line
        runs[1].write_bytes(bytes(damaged))
        os.utime(runs[1], (time.time() - 2000,) * 2)

        removed = prune_journals(tmp_path, keep=0)
        assert sorted(p.name for p in removed) == ["run-0.jsonl", "run-2.jsonl"]
        assert runs[1].read_bytes() == bytes(damaged), "evidence is never deleted"
        (fresh,) = [p for p in log_dir(tmp_path).glob("*.jsonl") if p not in runs]
        store = ResultCache(tmp_path)
        for r in range(3):
            for k in range(2):
                assert store.get(f"{r}{k}" * 32) == {"status": "ok", "run": r, "k": k}
        carried = [e["key"] for e in _events(tmp_path) if e.get("event") == "done"]
        assert carried.count("00" * 32) == 1 and fresh.stat().st_size > 0

    def test_budget_drops_the_live_segment_and_rotates(self, tmp_path):
        """A store's own segment may be dropped too (it is sealed each
        time it passes a quarter of the budget): its writer moves to a
        fresh segment and the hit entries move with it."""
        cache = ResultCache(tmp_path)
        cache.budget_mb = 0.004
        cache.put("aa" * 32, {"status": "ok", "pad": "x" * 1500})
        assert cache.get("aa" * 32) is not None
        cache.put("bb" * 32, {"status": "ok", "pad": "y" * 1500})
        cache.put("cc" * 32, {"status": "ok", "pad": "z" * 1500})  # over
        # aa's and bb's segments went; aa rode on into a fresh one.
        names = sorted(p.name for p in log_dir(tmp_path).glob("*.jsonl"))
        assert [n.split(".")[1] for n in names] == ["2", "3"]
        assert cache.get("aa" * 32) is not None
        assert cache.get("bb" * 32) is None
        assert cache.get("cc" * 32) is not None
        assert cache.occupancy()["bytes"] <= 4000


class TestBudget:
    def test_hit_entries_past_the_budget_do_not_pin_it(
        self, tmp_path, monkeypatch
    ):
        """Hit entries that alone exceed the budget are carried once: a
        hit mark is spent when its entry is carried, so usage fits the
        budget again and the bytes written per put stay bounded."""
        pad = "x" * 900
        keys = [f"{i:064x}" for i in range(100)]
        first = ResultCache(tmp_path)  # unbudgeted: 30 kB in one run
        for key in keys[:30]:
            first.put(key, {"status": "ok", "pad": pad})
        first.close()
        written = []
        real_append = SegmentWriter.append

        def append(writer, data):
            written.append(len(data))
            return real_append(writer, data)

        monkeypatch.setattr(SegmentWriter, "append", append)
        cache = ResultCache(tmp_path)
        cache.budget_mb = 0.02  # 20 kB
        assert all(cache.get(key) is not None for key in keys[:30])
        per_put = []
        for key in keys[30:]:
            written.clear()
            cache.put(key, {"status": "ok", "pad": pad})
            per_put.append(sum(written))
            assert cache.occupancy()["bytes"] <= 20_000
        line = min(per_put)
        # One put carries the hit set over once; the rest write only
        # their own line (and what was hit since: nothing here).
        assert sorted(per_put)[-2] == line, per_put
        assert sum(per_put) < 70 * line + 40_000
        assert cache._hit == set()

    def test_budget_spares_a_live_run_and_resume_recompiles_nothing(
        self, tmp_path
    ):
        """A budgeted sweep whose own output exceeds the budget is
        aborted, then resumed: the budget never dropped the live run's
        segment, so nothing finished recompiles."""
        specs = _specs(8)
        seen = []

        def abort_after_five(done, total, record):
            seen.append(record["job_key"])
            if len(seen) == 5:
                raise KeyboardInterrupt

        older = ResultCache(tmp_path)
        older.put("00" * 32, {"status": "ok", "pad": "p"})
        older.close()  # sealed: the budget's to drop
        engine = BatchCompiler(
            jobs=1, cache_dir=tmp_path, options=SEARCH_ONLY,
            progress=abort_after_five,
        )
        engine.cache.budget_mb = 0.004  # below one run's 5 records
        try:
            engine.compile_specs(specs)
        except KeyboardInterrupt:
            pass
        segment = log_dir(tmp_path) / f"{engine.run_id}.jsonl"
        assert [p.name for p in log_dir(tmp_path).iterdir()] == [segment.name]
        assert segment.read_bytes().count(b'"event": "done"') == 5
        resumed = BatchCompiler(
            jobs=1, cache_dir=tmp_path, options=SEARCH_ONLY,
            resume=engine.run_id,
        )
        resumed.cache.budget_mb = 0.004
        result = resumed.compile_specs(specs)
        assert result.stats.resumed == 5 and result.stats.compiled == 3

    def test_another_process_never_drops_a_live_segment(self, tmp_path):
        """Only sealed segments are another store's to drop: a live
        run's segment (or a killed one's) is left to ``prune``."""
        journal = SweepJournal(tmp_path, run_id="live",
                               store=ResultCache(tmp_path))
        journal.begin(total=4, unique=4)
        for i in range(4):
            journal.done(f"{i:064x}", {"status": "ok", "pad": "q" * 2000},
                         True)
        other = ResultCache(tmp_path)
        other.budget_mb = 0.004
        other.put("ff" * 32, {"status": "ok", "pad": "r" * 500})
        segment = journal.path
        assert segment.exists()
        assert len(SweepJournal.load(tmp_path, "live")) == 4
        journal.seal()
        journal.close()
        other.put("ee" * 32, {"status": "ok", "pad": "s" * 500})
        assert not segment.exists(), "sealed: now the budget's"


class TestQuarantineCount:
    def test_fresh_store_counts_damage_found_on_disk(self, tmp_path):
        """``occupancy()["quarantined"]`` comes from the segments on
        disk, not from what this process happened to read: a fresh
        store counts a damaged line after ``entry_count()``, and stops
        counting it once its segment is deleted."""
        writer = ResultCache(tmp_path)
        for i in range(3):
            writer.put(f"{i:064x}", {"status": "ok", "i": i})
        writer.close()  # sealed
        (segment,) = log_dir(tmp_path).glob("*.jsonl")
        data = bytearray(segment.read_bytes())
        data[data.index(b'"i": 1') + 5] ^= 0x01  # one record's digit
        segment.write_bytes(bytes(data))
        # A sealed segment is read through its index: the damage shows
        # when a lookup reads the line, which unseals the segment ...
        reader = ResultCache(tmp_path)
        assert reader.entry_count() == 3
        assert reader.get(f"{1:064x}") is None
        assert reader.occupancy()["quarantined"] == 1
        assert not segment.with_suffix(".idx").exists()
        # ... so every later store streams it and counts it up front.
        fresh = ResultCache(tmp_path)
        assert fresh.entry_count() == 2
        occupancy = fresh.occupancy()
        assert occupancy["quarantined"] == 1
        assert occupancy["quarantined_bytes"] > 0
        segment.unlink()
        assert fresh.occupancy()["quarantined"] == 0

    def test_unsealed_damage_is_counted_by_a_fresh_store(self, tmp_path):
        journal = SweepJournal(tmp_path, run_id="killed")
        journal.begin(total=1, unique=1)
        journal.close()  # never sealed, as after a kill
        with open(journal.path, "ab") as fh:
            fh.write(b"garbage\n")
        occupancy = ResultCache(tmp_path).occupancy()
        assert occupancy["quarantined"] == 1
        assert occupancy["quarantined_bytes"] == len(b"garbage\n")


class TestSealing:
    def test_completed_run_is_sealed_and_resume_opens_a_new_segment(
        self, tmp_path
    ):
        engine = BatchCompiler(jobs=1, cache_dir=tmp_path,
                               options=SEARCH_ONLY)
        engine.compile_specs(_specs(2))
        segment = log_dir(tmp_path) / f"{engine.run_id}.jsonl"
        assert segment.with_suffix(".idx").exists()
        sealed = segment.read_bytes()
        again = BatchCompiler(jobs=1, cache_dir=tmp_path,
                              options=SEARCH_ONLY, resume=engine.run_id)
        result = again.compile_specs(_specs(3))
        assert result.stats.resumed == 2 and result.stats.compiled == 1
        assert segment.read_bytes() == sealed, "a sealed segment never grows"
        assert (log_dir(tmp_path) / f"{engine.run_id}.1.idx").exists()
        assert len(SweepJournal.load(tmp_path, engine.run_id)) == 3

    def test_index_that_does_not_match_is_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, {"v": 1})
        cache.close()
        (segment,) = log_dir(tmp_path).glob("*.jsonl")
        with open(segment, "ab") as fh:  # grown after it was sealed
            fh.write(encode_line(b'"event": "note"}'))
        index = segment.with_suffix(".idx").read_bytes()
        for bad in (index.replace(b'"at": [0]', b'"at": [9]'), b"", index):
            segment.with_suffix(".idx").write_bytes(bad)
            store = ResultCache(tmp_path)
            assert store.get("aa" * 32) == {"v": 1}
            assert store.stats.corruptions == 0


# -- seeded fuzz of the segment reader -------------------------------------------


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail a fuzz case that runs longer than ``seconds`` (a hang in
    the reader) instead of wedging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"fuzz case exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _fuzz_store(root: pathlib.Path):
    """Two runs' segments and a ``put`` segment over golden records:
    cacheable, retried and error ``done`` lines beside ``begin`` and
    ``submit`` lines.  The first run and the ``put`` segment are sealed
    (so their index files are fuzzed too); the second run's is not, as
    after a kill.  Returns ``(put records, journaled records)``."""
    records = _golden_records()[:24]
    stored, journaled = {}, {}
    for run in range(2):
        journal = SweepJournal(root, run_id=f"run{run}", store=ResultCache(root))
        keys = [f"{run}{i:02d}" * 16 + "0" * 16 for i in range(8)]
        journal.begin(total=len(keys), unique=len(keys))
        journal.submit(keys)
        for i, key in enumerate(keys):
            record = records[(8 * run + i) % len(records)]
            if i == 6:
                record = dict(record, attempts=2, retry_history=[{"attempt": 1}])
            cacheable = i != 7
            if i == 7:
                record = {"status": "error", "error": "boom"}
            journal.done(key, record, cacheable)
            journaled[key] = record
            if cacheable:
                stored[key] = {
                    k: v for k, v in record.items() if k not in ("attempts", "retry_history")
                }
        if not run:
            journal.seal()
        journal.close()
    cache = ResultCache(root)
    for i in range(6):
        key = f"p{i}" * 32
        cache.put(key, records[16 + i])
        stored[key] = records[16 + i]
    cache.close()
    return stored, journaled


def _lines(data: bytes) -> list:
    """Lines as the store splits them: at ``\\n`` only, newline kept; a
    torn last line comes without one."""
    parts = data.split(b"\n")
    return [part + b"\n" for part in parts[:-1]] + ([parts[-1]] if parts[-1] else [])


def _mutate(rng: random.Random, log: pathlib.Path) -> None:
    paths = sorted(log.iterdir())
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(paths)
        data = bytearray(path.read_bytes())
        lines = _lines(bytes(data))
        kind = rng.choice(["truncate", "flip", "duplicate", "interleave", "empty", "binary"])
        if kind == "truncate" and data:
            del data[rng.randrange(len(data)):]
        elif kind == "flip" and data:
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
        elif kind == "duplicate" and lines:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            data = bytearray(b"".join(lines))
        elif kind == "interleave":
            other = _lines(rng.choice(paths).read_bytes())
            if other and lines:
                mixed = lines + rng.sample(other, min(3, len(other)))
                rng.shuffle(mixed)
                data = bytearray(b"".join(mixed))
        elif kind == "empty":
            (log / f"empty{rng.randrange(1000)}.jsonl").write_bytes(b"")
        elif kind == "binary":
            blob = bytes(rng.choice([0x80, 0xFF, 0xC3, 0x0A, 0x7B]) for _ in range(200))
            (log / f"binary{rng.randrange(1000)}.jsonl").write_bytes(blob)
        path.write_bytes(bytes(data))


def _damage_oracle(log: pathlib.Path, originals: set) -> set:
    """Every damaged segment line the fuzz left, as the store identifies
    it: a whole line that is not one the writers wrote, or a torn tail."""
    damaged = set()
    for path in log.glob("*.jsonl"):
        offset = 0
        for line in _lines(path.read_bytes()):
            if not line.endswith(b"\n") or line not in originals:
                damaged.add((str(path), offset))
            offset += len(line)
    return damaged


def test_fuzz_segment_reader(tmp_path):
    """Seeded mutations of real segments and their index files:
    truncation, flipped bytes, duplicated and interleaved lines, empty
    and non-UTF-8 files.  Every ``get`` returns a record that was stored
    or ``None``, nothing raises, a damaged line is never counted twice,
    and once every segment has been read through (``SweepJournal.load``)
    each damaged line is counted exactly once."""
    base = tmp_path / "base"
    stored, journaled = _fuzz_store(base)
    originals = {line for path in log_dir(base).iterdir() for line in _lines(path.read_bytes())}
    for case in range(40):
        rng = random.Random(20261017 + case)
        root = tmp_path / f"case{case}"
        log = log_dir(root)
        log.mkdir(parents=True)
        for path in log_dir(base).iterdir():
            (log / path.name).write_bytes(path.read_bytes())
        if case:
            _mutate(rng, log)
        truth = _damage_oracle(log, originals)

        def mine() -> set:
            return {i for i in cache_mod._DAMAGED if i[0].startswith(str(log) + os.sep)}

        with _deadline(5.0):
            store = ResultCache(root)
            for _ in range(2):
                for key, record in stored.items():
                    got = store.get(key)
                    assert got is None or got == record, (case, key)
            assert mine() <= truth, case
            assert store.stats.corruptions <= len(mine())
            if not case:
                assert store.stats.hits == 2 * len(stored)
            for path in sorted(log.glob("*.jsonl")):
                for key, record in SweepJournal.load(root, path.stem).items():
                    assert record == journaled.get(key, stored.get(key)), (case, key)
            assert mine() == truth, case
            counted = cache_corruption_count()
            store.entry_count()
            ResultCache(root).occupancy()
            assert cache_corruption_count() == counted, "counted once"


# -- kill -9 ----------------------------------------------------------------------


def _done_count(path: pathlib.Path) -> int:
    try:
        return path.read_bytes().count(b'"event": "done"')
    except OSError:
        return 0


def test_sigkill_mid_sweep_then_resume(tmp_path, capsys):
    """``kill -9`` a running ``repro sweep -j 2`` once its segment holds
    3 ``done`` lines, tear its last line as a kill mid-write would,
    then ``--resume`` the run id it printed: only the unfinished points
    compile, the torn line is skipped and counted (never served), and
    the records equal a clean run's."""
    cache = tmp_path / "cache"
    grid = [
        "--height", "8", "16", "--width", "8", "16", "--formats", "INT4",
        "--frequency", "200:450:+50", "--no-implement", "--no-summary", "-j", "2",
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", *grid, "--cache-dir", str(cache),
         "--output", str(tmp_path / "killed.jsonl")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        start_new_session=True,
    )
    try:
        run_id = None
        for raw in proc.stdout:
            if raw.startswith(b"run "):
                run_id = raw.split()[1].decode()
                break
        assert run_id is not None
        segment = log_dir(cache) / f"{run_id}.jsonl"
        deadline = time.monotonic() + 120
        while _done_count(segment) < 3:
            assert proc.poll() is None, "the sweep finished before the kill"
            assert time.monotonic() < deadline
            time.sleep(0.002)
        os.killpg(proc.pid, signal.SIGKILL)
    finally:
        proc.wait()
        proc.stdout.close()
    assert proc.returncode == -signal.SIGKILL
    data = segment.read_bytes()
    last = data.rindex(b"\n", 0, data.rindex(b'"event": "done"')) + 1
    torn = data[last:].split(b"\n")[0]
    segment.write_bytes(data[:last] + torn[: len(torn) // 2])  # a kill mid-write
    finished = _done_count(segment) - 1
    assert 2 <= finished < 23

    before = cache_corruption_count()
    rc = cli_main(["sweep", *grid, "--cache-dir", str(cache), "--resume", run_id,
                   "--output", str(tmp_path / "resumed.jsonl")])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"resumed {finished}" in out
    assert f"compiled {24 - finished}," in out
    assert cache_corruption_count() == before + 1, "the torn line, counted once"

    assert cli_main(["sweep", *grid, "--no-cache", "--output", str(tmp_path / "clean.jsonl")]) == 0

    def canonical(name: str):
        lines = (tmp_path / name).read_text().splitlines()
        return sorted(json.dumps(_strip(json.loads(line)), sort_keys=True) for line in lines)

    assert len(canonical("resumed.jsonl")) == 24
    assert canonical("resumed.jsonl") == canonical("clean.jsonl")
