"""Persistent subcircuit-library cache semantics.

The contract under test (see ``docs/performance.md``):

* the cache key is a stable content hash — identical across processes,
  different as soon as the cell library or the builder grids change;
* a cached artifact reloads record-for-record identical to the library
  that produced it;
* corruption in any form degrades to a fresh build, never to an error
  or a wrong library;
* the ``REPRO_SCL_CACHE`` escape hatches work.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.scl.builder import build_default_scl
from repro.scl.cache import (
    SCL_CACHE_SCHEMA,
    load_cached_scl,
    scl_cache_corruption_count,
    scl_cache_dir,
    scl_cache_enabled,
    scl_cache_key,
    store_cached_scl,
)
from repro.scl.library import KINDS, SubcircuitLibrary, default_scl
from repro.scl.lut import PPARecord
from repro.tech.process import GENERIC_40NM, Process
from repro.tech.stdcells import Cell, StdCellLibrary, TimingArc, default_library


def _records(scl: SubcircuitLibrary) -> dict:
    return {kind: dict(scl.table(kind).items()) for kind in KINDS}


def _tiny_scl(library=None, process=None) -> SubcircuitLibrary:
    """Handcrafted sealed library exercising awkward float values."""
    scl = SubcircuitLibrary(
        process=process or GENERIC_40NM,
        cell_library=library or default_library(),
    )
    scl.table("adder_tree").add(
        "cmp42-fa0-r",
        8,
        PPARecord(0.1234567890123456, 1.1e-17, 100.0, 3.0000000000000004e-3),
    )
    scl.table("adder_tree").add(
        "cmp42-fa0-r",
        16,
        PPARecord(0.25, 2.5, 200.125, 0.004, cells=40),
    )
    scl.table("ofu").add(
        "c4-rpl",
        16,
        PPARecord(0.5, 3.0, 300.0, 0.006, cells=77,
                  stage_delays_ns=(0.21, 0.42000000000000004)),
    )
    scl.table("memcell").add("DCIM6T", 1, PPARecord(0.03, 0.2, 1.05, 4.5e-7))
    scl.seal()
    return scl


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SCL_CACHE", str(tmp_path))
    return tmp_path


class TestCacheKey:
    def test_stable_within_process(self, library, process, cache_dir):
        assert scl_cache_key(library, process) == scl_cache_key(
            library, process
        )

    def test_stable_across_processes(self, library, process, cache_dir):
        """Hash stability is what makes the artifact shareable between
        CLI runs, pytest sessions and batch workers."""
        import os
        import pathlib

        import repro

        code = (
            "from repro.scl.cache import scl_cache_key;"
            "from repro.tech.stdcells import default_library;"
            "from repro.tech.process import GENERIC_40NM;"
            "print(scl_cache_key(default_library(), GENERIC_40NM))"
        )
        env = dict(os.environ)
        pkg_root = str(pathlib.Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
        keys = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            ).stdout.strip()
            for _ in range(2)
        }
        assert keys == {scl_cache_key(library, process)}

    def test_changes_with_cell_library(self, library, process):
        cells = {name: library.cell(name) for name in library.names}
        cells["XCELL"] = Cell(
            name="XCELL",
            area_um2=1.0,
            input_caps_ff={"A": 1.0},
            outputs=("Y",),
            arcs=(TimingArc("A", "Y", 0.01, 1.0),),
            leakage_nw=1.0,
            internal_energy_fj={"Y": 0.1},
        )
        extra = StdCellLibrary(cells)
        assert scl_cache_key(extra, process) != scl_cache_key(
            library, process
        )

    def test_changes_with_cell_parameters(self, library, process):
        cells = {name: library.cell(name) for name in library.names}
        inv = cells["INV_X1"]
        cells["INV_X1"] = replace(inv, leakage_nw=inv.leakage_nw * 2)
        assert scl_cache_key(
            StdCellLibrary(cells), process
        ) != scl_cache_key(library, process)

    def test_changes_with_process(self, library, process):
        other = Process(name="other28", vdd_nominal=0.8)
        assert scl_cache_key(library, other) != scl_cache_key(
            library, process
        )

    def test_changes_with_builder_grids(self, library, process, monkeypatch):
        import repro.scl.builder as builder

        before = scl_cache_key(library, process)
        monkeypatch.setattr(builder, "TREE_SIZES", (8, 16))
        assert scl_cache_key(library, process) != before

    def test_changes_with_char_port_stats(self, library, process, monkeypatch):
        import repro.scl.builder as builder

        before = scl_cache_key(library, process)
        monkeypatch.setattr(
            builder, "CHAR_PORT_STATS", (("in[", (0.3, 0.3)),)
        )
        assert scl_cache_key(library, process) != before


class TestRoundTrip:
    def test_store_then_load_identical(self, cache_dir, library, process):
        scl = _tiny_scl(library, process)
        path = store_cached_scl(scl)
        assert path is not None and path.is_file()
        loaded = load_cached_scl(library, process)
        assert loaded is not None
        assert loaded.sealed
        assert loaded.entry_count() == scl.entry_count()
        # Record-for-record, bit-for-bit: frozen dataclass equality is
        # exact float equality.
        assert _records(loaded) == _records(scl)

    def test_default_scl_round_trip_identical(self, cache_dir, scl):
        """The real 261-record default library survives the disk
        round-trip without losing a single ulp."""
        path = store_cached_scl(scl)
        assert path is not None
        loaded = load_cached_scl(scl.cell_library, scl.process)
        assert loaded is not None
        assert loaded.entry_count() == scl.entry_count()
        assert _records(loaded) == _records(scl)

    def test_missing_artifact_is_a_miss(self, cache_dir, library, process):
        assert load_cached_scl(library, process) is None


class TestCorruption:
    def _stored_path(self, library, process):
        scl = _tiny_scl(library, process)
        path = store_cached_scl(scl)
        assert path is not None
        return path

    def test_truncated_artifact(self, cache_dir, library, process):
        path = self._stored_path(library, process)
        path.write_text(path.read_text()[: 40])
        assert load_cached_scl(library, process) is None

    def test_garbage_artifact(self, cache_dir, library, process):
        path = self._stored_path(library, process)
        path.write_text("not json at all {{{")
        assert load_cached_scl(library, process) is None

    def test_wrong_schema(self, cache_dir, library, process):
        path = self._stored_path(library, process)
        payload = json.loads(path.read_text())
        payload["schema"] = SCL_CACHE_SCHEMA + 1
        path.write_text(json.dumps(payload))
        assert load_cached_scl(library, process) is None

    def test_wrong_key(self, cache_dir, library, process):
        path = self._stored_path(library, process)
        payload = json.loads(path.read_text())
        payload["key"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert load_cached_scl(library, process) is None

    def test_missing_table(self, cache_dir, library, process):
        path = self._stored_path(library, process)
        payload = json.loads(path.read_text())
        del payload["tables"]["memcell"]
        path.write_text(json.dumps(payload))
        assert load_cached_scl(library, process) is None

    def test_wrong_entry_count(self, cache_dir, library, process):
        path = self._stored_path(library, process)
        payload = json.loads(path.read_text())
        payload["entry_count"] = 999
        path.write_text(json.dumps(payload))
        assert load_cached_scl(library, process) is None

    def test_corruption_warns_once_and_counts(
        self, cache_dir, library, process, capsys, monkeypatch
    ):
        """A present-but-unusable artifact is not silent: exactly one
        stderr warning line per artifact, and the corruption counter
        climbs so CI logs surface cache churn."""
        import repro.scl.cache as cache_mod

        # The seen-key set is process-global; earlier corruption tests
        # may already have burned this library's key.
        monkeypatch.setattr(cache_mod, "_CORRUPT_KEYS", set())
        before = scl_cache_corruption_count()
        path = self._stored_path(library, process)
        path.write_text("not json at all {{{")
        capsys.readouterr()
        assert load_cached_scl(library, process) is None
        err = capsys.readouterr().err
        assert err.count("corrupt or stale") == 1
        assert path.name.split(".")[0] in err
        assert scl_cache_corruption_count() == before + 1
        # Repeated lookups of the same bad artifact stay quiet.
        assert load_cached_scl(library, process) is None
        assert capsys.readouterr().err == ""
        assert scl_cache_corruption_count() == before + 1

    def test_plain_miss_is_silent(
        self, cache_dir, library, process, capsys
    ):
        before = scl_cache_corruption_count()
        capsys.readouterr()
        assert load_cached_scl(library, process) is None
        assert capsys.readouterr().err == ""
        assert scl_cache_corruption_count() == before

    def test_corrupted_artifact_falls_back_to_build(
        self, cache_dir, library, process, monkeypatch
    ):
        """default_scl() must survive a corrupt artifact: rebuild fresh
        and overwrite, never crash or serve garbage."""
        import repro.scl.library as lib_mod

        path = self._stored_path(library, process)
        path.write_text('{"truncated": ')
        calls = {"built": 0}
        tiny = _tiny_scl(library, process)

        def fake_build(*args, **kwargs):
            calls["built"] += 1
            return tiny

        monkeypatch.setattr(
            "repro.scl.builder.build_default_scl", fake_build
        )
        monkeypatch.setattr(lib_mod, "_CACHE", {})
        monkeypatch.setattr(lib_mod, "_SOURCE", {})
        scl = default_scl(process)
        assert calls["built"] == 1
        assert scl is tiny
        assert lib_mod.default_scl_source(process) == "built"
        # ... and the rebuild repaired the artifact on disk.
        reloaded = load_cached_scl(library, process)
        assert reloaded is not None
        assert _records(reloaded) == _records(tiny)


class TestEscapeHatches:
    def test_env_off_disables(self, monkeypatch, library, process):
        for value in ("off", "0", "false", "no", "disabled", "OFF"):
            monkeypatch.setenv("REPRO_SCL_CACHE", value)
            assert not scl_cache_enabled()
            assert store_cached_scl(_tiny_scl(library, process)) is None
            assert load_cached_scl(library, process) is None

    def test_env_path_overrides_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCL_CACHE", str(tmp_path / "here"))
        assert scl_cache_enabled()
        assert scl_cache_dir() == tmp_path / "here"

    def test_repro_cache_dir_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SCL_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert scl_cache_dir() == tmp_path / "scl"

    def test_cli_flag_sets_env(self, monkeypatch):
        import repro.cli as cli

        monkeypatch.delenv("REPRO_SCL_CACHE", raising=False)
        seen = {}

        def fake_dispatch(args):
            import os

            seen["env"] = os.environ.get("REPRO_SCL_CACHE")
            return 0

        monkeypatch.setattr(cli, "_dispatch", fake_dispatch)
        assert cli.main(["--no-scl-cache", "search", "--height", "8"]) == 0
        assert seen["env"] == "off"


class TestDefaultSclIntegration:
    def test_second_resolution_loads_from_disk(
        self, cache_dir, library, process, monkeypatch
    ):
        import repro.scl.library as lib_mod

        tiny = _tiny_scl(library, process)
        monkeypatch.setattr(
            "repro.scl.builder.build_default_scl", lambda *a, **k: tiny
        )
        monkeypatch.setattr(lib_mod, "_CACHE", {})
        monkeypatch.setattr(lib_mod, "_SOURCE", {})
        first = default_scl(process)
        assert lib_mod.default_scl_source(process) == "built"
        assert first is tiny

        # New "process": clear the in-memory cache; the disk artifact
        # must satisfy the request without calling the builder.
        monkeypatch.setattr(
            "repro.scl.builder.build_default_scl",
            lambda *a, **k: pytest.fail("builder called despite artifact"),
        )
        monkeypatch.setattr(lib_mod, "_CACHE", {})
        monkeypatch.setattr(lib_mod, "_SOURCE", {})
        second = default_scl(process)
        assert lib_mod.default_scl_source(process) == "disk"
        assert _records(second) == _records(tiny)
