"""Batch subsystem: hashing, sweep grammar, cache, engine, CLI.

The equivalence test at the bottom is the contract the whole subsystem
rests on: a batch run over N specs — deduplicated, pooled, cached —
must produce exactly the records that N sequential
``SynDCIM().compile()`` calls would.
"""

from __future__ import annotations

import copy
import gc
import json
import multiprocessing
import os
import pathlib
import stat
import subprocess
import sys
import threading
import time

import pytest

from repro.arch import MacroArchitecture
from repro.batch import sweep
from repro.batch.cache import ResultCache, encode_done, log_dir
from repro.batch.engine import (
    BatchCompiler,
    BatchResult,
    BatchStats,
    JobExecutor,
)
from repro.batch.jobs import CompileJob
from repro.batch.sweep import (
    MAX_AXIS_POINTS,
    MAX_GRID_POINTS,
    expand_axes,
    expand_grid,
    grid_summary,
    parse_axis,
    parse_format_sets,
)
from repro.cli import main as cli_main
from repro.errors import SpecificationError
from repro.options import PPA_PRESETS, CompileOptions
from repro.spec import FP8, INT4, INT8, MacroSpec, PPAWeights

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
#: An INT4-only spec's format fields, as a JSONL spec line spells them.
_INT4_FORMATS = (
    '"input_formats": [{"name": "INT4", "kind": "int", "bits": 4}], '
    '"weight_formats": [{"name": "INT4", "kind": "int", "bits": 4}]'
)


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


# -- serialization and hashing ---------------------------------------------


class TestSpecSerialization:
    def test_roundtrip(self):
        spec = _small_spec(
            input_formats=(INT4, INT8, FP8),
            weight_formats=(INT8,),
            ppa=PPAWeights(power=3.0),
            vdd=1.1,
        )
        assert MacroSpec.from_dict(spec.to_dict()) == spec

    def test_roundtrip_through_json(self):
        spec = _small_spec()
        blob = json.dumps(spec.to_dict())
        assert MacroSpec.from_dict(json.loads(blob)) == spec

    def test_equal_specs_equal_hashes(self):
        assert _small_spec().content_hash() == _small_spec().content_hash()

    def test_any_field_changes_hash(self):
        base = _small_spec()
        for changed in (
            base.replace(height=16),
            base.replace(mac_frequency_mhz=500.0),
            base.replace(vdd=1.0),
            base.replace(ppa=PPAWeights(area=2.0)),
            base.replace(weight_formats=(INT8,)),
        ):
            assert changed.content_hash() != base.content_hash()

    def test_hash_stable_across_processes(self):
        """The cache key must survive PYTHONHASHSEED randomization."""
        code = (
            "from repro.spec import MacroSpec; "
            "print(MacroSpec(height=8, width=8).content_hash())"
        )
        digests = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = (
                str(REPO_ROOT / "src")
                + os.pathsep
                + env.get("PYTHONPATH", "")
            )
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
        assert digests == {MacroSpec(height=8, width=8).content_hash()}

    def test_arch_roundtrip(self):
        arch = MacroArchitecture(
            memcell="DCIM8T", column_split=2, ofu_csel=True
        )
        assert MacroArchitecture(**arch.to_dict()) == arch


class TestJobKeys:
    def test_same_job_same_key(self):
        a = CompileJob(spec=_small_spec())
        b = CompileJob(spec=_small_spec())
        assert a.key() == b.key()

    def test_options_change_key(self):
        spec = _small_spec()
        base = CompileJob(spec=spec)
        for changed in (
            CompileOptions(implement=False),
            CompileOptions(seed=7),
            CompileOptions(input_sparsity=0.5),
        ):
            assert CompileJob(spec, changed).key() != base.key()

    def test_process_name_in_key_and_payload(self):
        """The process must reach the worker, not just the hash —
        key-only coverage would cache default-node numbers under
        another process's key."""
        spec = _small_spec()
        a = CompileJob(spec=spec)
        b = CompileJob(spec, CompileOptions(process="other40"))
        assert a.key() != b.key()
        assert a.payload()["process"] != b.payload()["process"]

    def test_unregistered_process_is_an_error_record(self):
        from repro.compiler.syndcim import execute_job

        record = execute_job(
            CompileJob(
                _small_spec(), CompileOptions(implement=False, process="bogus")
            ).payload()
        )
        assert record["status"] == "error"
        assert "bogus" in record["error"]


# -- sweep grammar ----------------------------------------------------------


class TestSweepGrammar:
    def test_single_value(self):
        assert parse_axis(["64"]) == [64]

    def test_geometric(self):
        assert parse_axis(["32:256:x2"]) == [32, 64, 128, 256]

    def test_geometric_inexact_stop(self):
        assert parse_axis(["32:200:x2"]) == [32, 64, 128]

    def test_arithmetic(self):
        assert parse_axis(["400:1000:+200"], integer=False) == [
            400.0,
            600.0,
            800.0,
            1000.0,
        ]

    def test_arithmetic_descending(self):
        assert parse_axis(["12:4:+-4"]) == [12, 8, 4]

    def test_float_axis(self):
        assert parse_axis(["0.6:0.9:+0.1"], integer=False) == pytest.approx(
            [0.6, 0.7, 0.8, 0.9]
        )

    def test_float_axis_no_drift(self):
        """Values must equal hand-typed literals exactly (they feed the
        cache key), not accumulate binary floating-point error."""
        assert parse_axis(["0.6:1.2:+0.1"], integer=False) == [
            0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2,
        ]

    @pytest.mark.parametrize(
        "token",
        [
            "",
            "a",
            "32:64",
            "32:64:*2",
            "32:64:x1",
            "32:64:+0",
            "64:32:+8",
            "-32:64:x2",
            "1:100000000:+1",
        ],
    )
    def test_rejects_malformed(self, token):
        with pytest.raises(SpecificationError):
            parse_axis([token])

    def test_axis_deduplicates(self):
        assert parse_axis(["32", "32:64:x2"]) == [32, 64]
        # First-seen order, not sorted.
        assert parse_axis(["64", "8:128:x2", "16"]) == [64, 8, 16, 32, 128]
        assert parse_axis(["0.9", "0.6:1.0:+0.1"], integer=False) == [
            0.9, 0.6, 0.7, 0.8, 1.0,
        ]

    def test_axis_cap(self):
        assert len(parse_axis([f"1:{MAX_AXIS_POINTS}:+1"])) == MAX_AXIS_POINTS
        with pytest.raises(
            SpecificationError, match=f"expands past {MAX_AXIS_POINTS} points"
        ):
            parse_axis([f"1:{MAX_AXIS_POINTS + 1}:+1"])

    def test_axis_cap_covers_the_whole_axis(self):
        """The cap counts the values of all an axis's tokens, not each
        token on its own, duplicates included."""
        half = MAX_AXIS_POINTS // 2
        with pytest.raises(
            SpecificationError, match=f"'1:4096:\\+1' expands past {MAX_AXIS_POINTS}"
        ):
            parse_axis(["1:4096:+1", "1:4096:+1", "7"])
        assert len(parse_axis([f"1:{half}:+1", f"{half + 1}:4096:+1"])) == 4096
        with pytest.raises(
            SpecificationError,
            match=f"'5000:9095:\\+1' expands past {MAX_AXIS_POINTS} points",
        ):
            parse_axis(["1:4096:+1", "5000:9095:+1", "10000:14095:+1"])
        with pytest.raises(SpecificationError, match="expands past"):
            parse_axis(["100:4195:+1", "5000"], integer=False)

    def test_axis_cap_counts_values_as_generated(self):
        """1,000 copies of a full-axis token are refused at the 4,097th
        value generated, not after expanding every copy; a value that
        repeats one already generated counts too."""
        assert len(parse_axis(["1:4096:+1"])) == MAX_AXIS_POINTS
        started = time.perf_counter()
        with pytest.raises(
            SpecificationError, match=f"'1:4096:\\+1' expands past {MAX_AXIS_POINTS}"
        ):
            parse_axis(["1:4096:+1"] * 1000)
        assert time.perf_counter() - started < 0.1
        with pytest.raises(SpecificationError, match="'5' expands past"):
            parse_axis(["1:4096:+1", "5"])

    def test_format_sets(self):
        sets = parse_format_sets(["INT4,INT8", "FP8"])
        assert [tuple(f.name for f in s) for s in sets] == [
            ("INT4", "INT8"),
            ("FP8",),
        ]
        with pytest.raises(SpecificationError):
            parse_format_sets([","])
        assert parse_format_sets(["INT8", "INT4,INT8", "INT8"]) == [
            parse_format_sets(["INT8"])[0],
            parse_format_sets(["INT4,INT8"])[0],
        ]

    def test_expand_grid_order_and_size(self):
        specs = expand_grid(
            heights=[32, 64],
            widths=[64],
            mcrs=[2],
            format_sets=parse_format_sets(["INT4"]),
            frequencies=[400.0, 800.0],
            vdds=[0.9],
        )
        assert len(specs) == 4
        assert [(s.height, s.mac_frequency_mhz) for s in specs] == [
            (32, 400.0),
            (32, 800.0),
            (64, 400.0),
            (64, 800.0),
        ]
        assert "4-point grid" in grid_summary(specs)

    def test_expand_axes_fills_defaults_for_both_front_ends(self):
        """`repro sweep` and `POST /v1/sweeps` expand raw tokens through
        one function: an absent axis sweeps its default, a string is one
        token, and unknown axes and presets are refused by name."""
        assert expand_axes({}) == expand_grid(
            [64], [64], [2], parse_format_sets(["INT4,INT8"]), [800.0], [0.9]
        )
        specs = expand_axes({"height": "32:64:x2", "vdd": [1.1]}, "energy")
        assert [(s.height, s.vdd) for s in specs] == [(32, 1.1), (64, 1.1)]
        assert specs[0].ppa == PPA_PRESETS["energy"]
        with pytest.raises(SpecificationError, match=(
            r"^unknown sweep axis\(es\) altitude; "
            r"known: formats, frequency, height, mcr, vdd, width$"
        )):
            expand_axes({"altitude": ["3"]}, "nope")
        with pytest.raises(SpecificationError, match=r"^unknown ppa preset 'nope'"):
            expand_axes({}, "nope")

    def test_expand_grid_rejects_empty_axis(self):
        with pytest.raises(SpecificationError):
            expand_grid([], [64], [2], parse_format_sets(["INT4"]), [800.0], [0.9])

    def test_expand_grid_caps_the_product_before_building_specs(
        self, monkeypatch
    ):
        """Two axes under the per-axis cap make 16,388,096 points; the
        grid is refused without building one spec."""
        built = []
        monkeypatch.setattr(sweep, "MacroSpec", lambda **kw: built.append(kw))
        frequencies = parse_axis(["100:4195:+1"], integer=False)
        vdds = parse_axis(["0.6:1.0:+0.0001"], integer=False)
        assert len(frequencies) * len(vdds) == 16_388_096
        with pytest.raises(
            SpecificationError, match=f"16388096 points exceeds {MAX_GRID_POINTS}"
        ):
            expand_grid(
                [64], [64], [2], parse_format_sets(["INT4"]), frequencies, vdds
            )
        assert built == []

    def test_expand_grid_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(sweep, "MAX_GRID_POINTS", 4)
        formats = parse_format_sets(["INT4"])
        assert len(expand_grid([32, 64], [64], [2], formats, [400.0, 800.0], [0.9])) == 4
        with pytest.raises(SpecificationError, match="exceeds 4"):
            expand_grid([32, 64], [64], [2], formats, [400.0, 600.0, 800.0], [0.9])

    def test_expand_grid_invalid_spec_propagates(self):
        with pytest.raises(SpecificationError):
            expand_grid(
                [48], [64], [2], parse_format_sets(["INT4"]), [800.0], [0.9]
            )


# -- result cache -----------------------------------------------------------


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        record = {"status": "ok", "power_mw": 1.5}
        cache.put("ab" * 32, record)
        assert "ab" * 32 in cache
        assert cache.get("ab" * 32) == record
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, {"v": 1})
        cache.put("ab" * 32, {"v": 2})
        assert cache.get("aa" * 32) == {"v": 1}
        assert cache.get("ab" * 32) == {"v": 2}
        assert cache.entry_count() == 2

    @pytest.mark.parametrize("implement", [False, True])
    def test_stored_bytes_match_the_streaming_encoder(self, tmp_path, implement):
        """``put`` encodes with one ``json.dumps`` call (the C encoder);
        the file must be byte-identical to what the streaming
        ``json.dump`` (pure-Python encoder) wrote for the same entry,
        for a search-only and an implemented record alike."""
        import io

        from repro.compiler.syndcim import execute_job

        job = CompileJob(_small_spec(), CompileOptions(implement=implement))
        record = execute_job(job.payload())
        assert record["status"] == "ok"
        assert (record["implementation"] is not None) == implement
        cache = ResultCache(tmp_path)
        cache.put(job.key(), record)
        (segment,) = log_dir(tmp_path).iterdir()
        line = segment.read_text(encoding="utf-8")
        written = line[line.index('"record": ') + len('"record": '):-2]
        streamed = io.StringIO()
        json.dump(record, streamed)
        assert written == streamed.getvalue()
        assert cache.get(job.key()) == record

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"v": 1})
        (segment,) = log_dir(tmp_path).iterdir()
        segment.write_text("{not json\n")
        assert cache.get(key) is None
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}

    @pytest.mark.parametrize("blob", ["[]", '"x"', "3", '{"record": [1]}'])
    def test_wrong_shaped_json_reads_as_miss(self, tmp_path, blob):
        """A line that is JSON but not a log line, and a well-formed
        ``done`` line whose record is not an object, both miss."""
        cache = ResultCache(tmp_path)
        key = "ce" * 32
        cache.put(key, {"v": 1})
        (segment,) = log_dir(tmp_path).iterdir()
        segment.write_text(blob + "\n")
        assert cache.get(key) is None
        if not blob.startswith("{"):
            segment.write_bytes(encode_done(key, blob.encode(), True, {}))
            assert ResultCache(tmp_path).get(key) is None

    def test_persists_across_instances(self, tmp_path):
        ResultCache(tmp_path).put("12" * 32, {"v": 3})
        assert ResultCache(tmp_path).get("12" * 32) == {"v": 3}

    def test_unwritable_store_degrades_to_not_cached(self, tmp_path):
        """A store failure must never raise — the record it was trying
        to persist is the product of real compute upstream."""
        blocker = tmp_path / "blocker"
        blocker.write_text("I am a file, not a directory")
        cache = ResultCache(blocker)
        cache.put("34" * 32, {"v": 1})  # mkdir under a file fails
        assert cache.stats.stores == 0
        assert cache.get("34" * 32) is None

    def test_records_are_private_and_no_temporary_is_left(self, tmp_path):
        """Every put appends to one 0600 segment: no per-record file,
        no temporary."""
        cache = ResultCache(tmp_path)
        keys = [f"{i:02d}" * 32 for i in range(3)] + ["00" + "1" * 62]
        for i, key in enumerate(keys):
            cache.put(key, {"v": i})
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert len(files) == 1 and files[0].parent == log_dir(tmp_path)
        assert stat.S_IMODE(files[0].stat().st_mode) == 0o600
        assert len(files[0].read_bytes().splitlines()) == len(keys)
        for i, key in enumerate(keys):
            assert cache.get(key) == {"v": i}


# -- batch engine -----------------------------------------------------------


def _exit_worker(payload):
    """Top-level (so the pool can pickle it): simulates a worker killed
    mid-job — os._exit skips all exception handling, like an OOM kill."""
    os._exit(13)


def _strip_markers(record: dict) -> dict:
    return {
        k: v for k, v in record.items() if k not in ("cached", "job_key")
    }


def _mutate(record: dict) -> None:
    """Change a record at every depth a caller could reach."""
    record["status"] = "mutated"
    record["selected"]["power_mw"] = -1.0
    record["selected"]["arch"]["memcell"] = "mutated"
    record["search"]["frontier"].clear()
    record["search"]["fix_counts"]["mutated"] = 1
    record["spec"]["input_formats"][0]["bits"] = -1


def _assert_unaliased(records: list) -> None:
    """Equal records for duplicate specs that share no mutable part:
    mutating each one in turn leaves every other as it was."""
    pristine = copy.deepcopy(records)
    for i, record in enumerate(records):
        _mutate(record)
        for j, other in enumerate(records):
            if j > i:
                assert other == pristine[j]


class TestBatchEngine:
    def test_batch_equals_sequential_compiles(self, tmp_path, scl):
        """A 4-spec batch (pooled, jobs=2) must reproduce 4 sequential
        SynDCIM().compile() runs record-for-record."""
        from repro.compiler.syndcim import SynDCIM, result_to_record

        specs = [
            _small_spec(mac_frequency_mhz=300.0),
            _small_spec(mac_frequency_mhz=400.0),
            _small_spec(height=16, mcr=1),
            _small_spec(width=16),
        ]
        engine = BatchCompiler(jobs=2, cache_dir=tmp_path)
        batch = engine.compile_specs(specs, implement=True)
        assert len(batch) == 4
        assert [r["status"] for r in batch] == ["ok"] * 4
        assert batch.stats.worker_spawns == 2

        compiler = SynDCIM(scl=scl)
        for spec, record in zip(specs, batch.records):
            expected = result_to_record(compiler.compile(spec))
            got = _strip_markers(record)
            got.pop("elapsed_s")
            assert got == expected

    def test_second_run_is_all_cache_hits(self, tmp_path):
        specs = [
            _small_spec(mac_frequency_mhz=300.0),
            _small_spec(mac_frequency_mhz=400.0),
        ]
        first = BatchCompiler(jobs=1, cache_dir=tmp_path).compile_specs(
            specs, implement=False
        )
        assert first.stats.compiled == 2
        second = BatchCompiler(jobs=1, cache_dir=tmp_path).compile_specs(
            specs, implement=False
        )
        assert second.stats.compiled == 0
        assert second.stats.cache_hits == 2
        assert "compiled 0" in second.stats.cache_line()
        assert all(r["cached"] for r in second.records)
        for a, b in zip(first.records, second.records):
            assert _strip_markers(a) == _strip_markers(b)

    def test_duplicate_specs_folded(self, tmp_path):
        spec = _small_spec()
        batch = BatchCompiler(jobs=1, cache_dir=tmp_path).compile_specs(
            [spec, spec, spec], implement=False
        )
        assert batch.stats.total == 3
        assert batch.stats.unique == 1
        assert batch.stats.deduplicated == 2
        assert batch.stats.compiled == 1
        assert len(batch.records) == 3
        assert (
            batch.records[0]["selected"] == batch.records[2]["selected"]
        )
        _assert_unaliased(batch.records)
        # The same again when every occurrence is a cache hit.
        hits = BatchCompiler(jobs=1, cache_dir=tmp_path).compile_specs(
            [spec, spec, spec], implement=False
        )
        assert hits.stats.cache_hits == 1
        _assert_unaliased(hits.records)

    def test_memory_store_hit_survives_caller_mutation(self, tmp_path):
        """A record the caller mutates must not leak into the store: a
        later hit comes back as it was computed."""
        spec = _small_spec()
        engine = BatchCompiler(jobs=1, cache_dir=tmp_path)
        first = engine.compile_specs([spec, spec], implement=False)
        pristine = [_strip_markers(r) for r in copy.deepcopy(first.records)]
        for record in first.records:
            _mutate(record)
        again = engine.compile_specs([spec], implement=False)
        assert again.stats.cache_hits == 1
        assert _strip_markers(again.records[0]) == pristine[0]
        _mutate(again.records[0])
        third = engine.compile_specs([spec], implement=False)
        assert _strip_markers(third.records[0]) == pristine[0]

    def test_infeasible_spec_is_a_record_not_a_crash(self, tmp_path):
        specs = [
            _small_spec(),
            _small_spec(height=256, width=64, mac_frequency_mhz=5000.0),
        ]
        batch = BatchCompiler(jobs=1, cache_dir=tmp_path).compile_specs(
            specs, implement=False
        )
        assert [r["status"] for r in batch] == ["ok", "infeasible"]
        assert batch.records[1]["selected"] is None
        assert "infeasible" in batch.describe()
        # Infeasibility is deterministic, so it caches too — and the
        # stats must still count it when it arrives as a cache hit.
        again = BatchCompiler(jobs=1, cache_dir=tmp_path).compile_specs(
            specs, implement=False
        )
        assert again.stats.compiled == 0
        assert again.stats.infeasible == 1

    def test_progress_callback_sees_every_job(self, tmp_path):
        seen = []
        engine = BatchCompiler(
            jobs=1,
            cache_dir=tmp_path,
            progress=lambda done, total, rec: seen.append((done, total)),
        )
        engine.compile_specs(
            [_small_spec(), _small_spec(height=16)], implement=False
        )
        assert seen == [(1, 2), (2, 2)]

    def test_no_cache_mode(self, tmp_path):
        engine = BatchCompiler(jobs=1, use_cache=False)
        batch = engine.compile_specs([_small_spec()], implement=False)
        assert batch.stats.compiled == 1
        assert batch.stats.worker_spawns == 0  # jobs=1 runs inline
        assert engine.cache is None

    def test_worker_death_becomes_error_record(self, tmp_path, monkeypatch):
        """A worker killed outright (OOM/segfault) must surface as an
        error record, not abort the batch."""
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("fork-only: relies on children inheriting the patch")
        import repro.compiler.syndcim as syndcim_mod

        monkeypatch.setattr(syndcim_mod, "execute_job", _exit_worker)
        specs = [_small_spec(), _small_spec(height=16)]
        batch = BatchCompiler(jobs=2, cache_dir=tmp_path).compile_specs(
            specs, implement=False
        )
        assert [r["status"] for r in batch] == ["error", "error"]
        assert all("worker died" in r["error"] for r in batch)
        assert batch.stats.failed == 2

    def test_map_preserves_order(self):
        engine = BatchCompiler(jobs=2, use_cache=False)
        assert engine.map(abs, [-3, 2, -1]) == [3, 2, 1]

    def test_map_raises_what_fn_raised(self):
        engine = BatchCompiler(jobs=2, use_cache=False)
        with pytest.raises(ValueError, match="invalid literal"):
            engine.map(int, ["1", "2", "x", "4"])
        assert multiprocessing.active_children() == []

    def test_seed_in_cache_key_and_determinism(self, tmp_path, scl):
        """Seeded searches are reproducible and keyed separately."""
        from repro.search.algorithm import MSOSearcher

        spec = _small_spec()
        a = MSOSearcher(scl, seed=11).search(spec)
        b = MSOSearcher(scl, seed=11).search(spec)
        assert [e.describe() for e in a.frontier] == [
            e.describe() for e in b.frontier
        ]
        unseeded = MSOSearcher(scl).search(spec)
        assert {e.arch.knob_summary() for e in a.frontier} == {
            e.arch.knob_summary() for e in unseeded.frontier
        }

    def test_execute_job_turns_any_crash_into_error_record(self):
        """A worker bug must become a status='error' record, never an
        exception that aborts the pool and discards the sweep."""
        from repro.compiler.syndcim import execute_job

        record = execute_job(
            {"type": "bogus", "spec": _small_spec().to_dict()}
        )
        assert record["status"] == "error"
        assert "ValueError" in record["error"]


# -- summarize --------------------------------------------------------------


class TestWorkerTransport:
    """The executor talks to each worker over its own pipe from the
    dispatching thread: no helper threads, and nothing left behind."""

    def _run(self, progress=None, jobs=2, **kwargs):
        return BatchCompiler(
            jobs=jobs, use_cache=False, journal=False, progress=progress,
            **kwargs,
        ).compile_specs(
            [_small_spec(), _small_spec(height=16)], implement=False
        )

    def test_progress_runs_on_the_caller_with_no_helper_thread(self):
        caller = threading.current_thread()
        before = set(threading.enumerate())
        seen = []

        def progress(done, total, record):
            extra = set(threading.enumerate()) - before
            seen.append((threading.current_thread(), extra))

        self._run(progress)
        assert seen == [(caller, set())] * 2

    def test_no_worker_outlives_its_run_or_queue(self):
        from repro.service.queue import JobQueue

        self._run()
        assert multiprocessing.active_children() == []
        with JobQueue(use_cache=False, journal=False, workers=2) as queue:
            job = queue.submit(_small_spec())
            assert queue.wait(job["id"], timeout=60)["status"] == "ok"
            assert multiprocessing.active_children() != []
        assert multiprocessing.active_children() == []

    def test_far_job_timeout_still_dispatches(self):
        """A watchdog deadline past what the selector's millisecond
        timeout holds (about 2.1e6 s) only caps the loop's wait."""
        batch = self._run(options=CompileOptions(job_timeout_s=1e7))
        assert [r["status"] for r in batch] == ["ok", "ok"]

    @pytest.mark.parametrize("faults", ["crash:1.0:first", "hang:1.0:first"])
    def test_crashed_and_killed_workers_are_reaped(self, faults, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", faults)
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "30")
        batch = self._run(options=CompileOptions(job_timeout_s=0.5))
        assert [r["status"] for r in batch] == ["ok", "ok"]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    @pytest.mark.parametrize(
        "faults, jobs",
        [
            pytest.param("", 2, id=""),
            pytest.param("crash:1.0:first", 2, id="crash:1.0:first"),
            # Inline runs build an executor too: its self-pipe.
            pytest.param("", 1, id="inline"),
        ],
    )
    def test_repeated_runs_leak_no_descriptor(self, faults, jobs, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", faults)
        self._run(jobs=jobs)  # one-time state: shared SCL segment, tracker pipe

        def open_fds() -> int:
            gc.collect()
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        for _ in range(20):
            self._run(jobs=jobs)
        assert open_fds() == before

    def test_wake_from_another_thread_ends_an_idle_wait(self):
        calls = []
        fed, fed_again = threading.Event(), threading.Event()

        def feed():
            calls.append(threading.current_thread())
            (fed_again if fed.is_set() else fed).set()

        executor = JobExecutor(1, feed=feed)
        executor.start()
        try:
            # Idle: fed once at start, then waiting with no timer armed.
            assert fed.wait(5.0)
            assert not fed_again.wait(0.3)
            threading.Thread(target=executor.wake).start()
            assert fed_again.wait(5.0)
        finally:
            executor.close()
        assert [t.name for t in calls] == ["repro-dispatch"] * 2


class TestSummarize:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("cache")
        specs = [
            _small_spec(mac_frequency_mhz=300.0),
            _small_spec(height=16, mac_frequency_mhz=300.0),
            _small_spec(height=256, width=64, mac_frequency_mhz=5000.0),
        ]
        return BatchCompiler(jobs=1, cache_dir=cache_dir).compile_specs(
            specs, implement=False
        ).records

    def test_summarize_sections(self, records):
        from repro.batch.summarize import summarize

        text = summarize(records)
        assert "2 ok, 1 infeasible" in text
        assert "Pareto frontier" in text
        assert "array-size scaling" in text

    def test_jsonl_roundtrip(self, records, tmp_path):
        from repro.batch.summarize import load_records, summarize

        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        loaded = load_records(path)
        assert summarize(loaded) == summarize(records)

    def test_load_rejects_garbage(self, tmp_path):
        from repro.batch.summarize import load_records

        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError):
            load_records(path)


# -- CLI --------------------------------------------------------------------


class TestBatchCLI:
    def test_sweep_then_cached_sweep(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--height", "8:16:x2",
            "--width", "8",
            "--formats", "INT4",
            "--frequency", "300",
            "--no-implement",
            "--no-summary",
            "-j", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(tmp_path / "out.jsonl"),
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "2-point grid" in out
        assert "compiled 2" in out
        lines = (tmp_path / "out.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["status"] == "ok"

        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: 2 hits, 0 misses; compiled 0" in out
        assert "cached" in out

    def test_sweep_stdout_output_and_summary(self, tmp_path, capsys):
        """--output - pipes pure JSONL to stdout, chatter to stderr."""
        rc = cli_main(
            [
                "sweep",
                "--height", "8",
                "--width", "8",
                "--formats", "INT4",
                "--frequency", "300",
                "--no-implement",
                "-j", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", "-",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        lines = [ln for ln in captured.out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] == "ok"
        assert "Pareto frontier across the sweep" in captured.err
        assert "cache:" in captured.err

    def test_sweep_bad_range_errors(self, tmp_path, capsys):
        rc = cli_main(
            ["sweep", "--height", "8:16", "--no-implement", "-j", "1",
             "--cache-dir", str(tmp_path), "--output", "-"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_oversized_grid_errors_before_output(self, tmp_path, capsys):
        out_file = tmp_path / "out.jsonl"
        rc = cli_main(
            ["sweep", "--frequency", "100:4195:+1", "--vdd", "0.6:1.0:+0.0001",
             "--no-implement", "-j", "1", "--cache-dir", str(tmp_path / "cache"),
             "--output", str(out_file)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"exceeds {MAX_GRID_POINTS}" in err
        assert "Traceback" not in err
        assert not out_file.exists()

    def test_sweep_oversized_axis_errors_before_output(self, tmp_path, capsys):
        """One axis whose tokens together pass ``MAX_AXIS_POINTS`` is
        refused before the output file is opened."""
        out_file = tmp_path / "out.jsonl"
        rc = cli_main(
            ["sweep", "--frequency", "100:4195:+1", "5000", "--no-implement",
             "-j", "1", "--cache-dir", str(tmp_path / "cache"),
             "--output", str(out_file)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"'5000' expands past {MAX_AXIS_POINTS} points" in err
        assert "Traceback" not in err
        assert not out_file.exists()

    def test_batch_duplicate_specs_one_jsonl_line_each(
        self, tmp_path, capsys
    ):
        """Folded duplicate jobs still yield one JSONL line per
        requested point (streaming writes uniques; copies appended)."""
        specs_file = tmp_path / "specs.jsonl"
        blob = json.dumps(_small_spec().to_dict())
        specs_file.write_text(blob + "\n" + blob + "\n")
        out_file = tmp_path / "out.jsonl"
        rc = cli_main(
            [
                "batch",
                "--specs", str(specs_file),
                "--no-implement",
                "--no-summary",
                "-j", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(out_file),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        lines = out_file.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["selected"] == (
            json.loads(lines[1])["selected"]
        )

    def test_batch_command_reads_spec_file(self, tmp_path, capsys):
        specs_file = tmp_path / "specs.jsonl"
        with open(specs_file, "w") as fh:
            fh.write(json.dumps(_small_spec().to_dict()) + "\n")
        rc = cli_main(
            [
                "batch",
                "--specs", str(specs_file),
                "--no-implement",
                "--no-summary",
                "-j", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(tmp_path / "out.jsonl"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 specs" in out
        assert (tmp_path / "out.jsonl").exists()

    def test_batch_missing_file_errors(self, capsys):
        rc = cli_main(["batch", "--specs", "/nonexistent.jsonl"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry",
        [
            '{"h": 64}', "64", '{"height": 48, "width": 8}',
            '{"height": 1e999, "width": 8, %s}' % _INT4_FORMATS,
            '{"height": 8, "width": 8, %s, "ppa": {"power": NaN}}' % _INT4_FORMATS,
        ],
    )
    def test_batch_malformed_spec_entry_clean_error(
        self, tmp_path, capsys, entry
    ):
        specs_file = tmp_path / "specs.jsonl"
        specs_file.write_text(entry + "\n")
        rc = cli_main(
            ["batch", "--specs", str(specs_file), "--cache-dir", str(tmp_path / "cache")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "entry 1" in err or "height" in err


# -- recovery accounting (resilience counters in the CLI cache line) ---------


class TestRecoveryStats:
    def test_cache_line_quiet_when_nothing_recovered(self):
        stats = BatchStats(total=4, unique=4, compiled=4)
        assert "recovery" not in stats.cache_line()

    def test_cache_line_reports_recovery_counters(self):
        stats = BatchStats(
            total=20,
            unique=20,
            compiled=8,
            retried=3,
            resumed=12,
            timeouts=1,
        )
        line = stats.cache_line()
        assert "recovery: retried 3, resumed 12, timeouts 1" in line

    def test_cache_line_reports_partial_recovery(self):
        line = BatchStats(total=2, unique=2, retried=2).cache_line()
        assert line.endswith("recovery: retried 2")
        assert "resumed" not in line
        assert "timeouts" not in line

    def test_describe_counts_timeouts(self):
        result = BatchResult(
            records=[
                {"status": "ok"},
                {"status": "timeout"},
                {"status": "error"},
            ],
            stats=BatchStats(total=3, unique=3),
        )
        assert "1 ok, 0 infeasible, 1 failed, 1 timed out" in result.describe()
