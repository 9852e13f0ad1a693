"""Shared-memory publish/attach lifecycle (see :mod:`repro.shm`).

Covers the blob framing and adoption rules, the SCL tensor round trip
(bit-identical, cross-process content-hash agreement), and
the leak guarantees: crashed workers, watchdog-killed pools, and full
chaos sweeps must leave ``/dev/shm`` clean and must not provoke
``resource_tracker`` "leaked shared_memory" complaints (treated as
failures here, not noise).
"""

import os
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory

import pytest

from repro.errors import BatchError
from repro.shm.blob import (
    SEGMENT_PREFIX,
    _wrap,
    attach_blob,
    detach_all,
    publish_blob,
    published_segments,
    unlink_all,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def _shm_listing():
    try:
        return sorted(
            f
            for f in os.listdir("/dev/shm")
            if f.startswith(SEGMENT_PREFIX)
        )
    except FileNotFoundError:  # non-Linux: nothing to sweep
        return []


@pytest.fixture(autouse=True)
def _clean_segments():
    """Every test starts and ends with this process detached and its
    published segments unlinked."""
    yield
    unlink_all()
    detach_all()


def _run_child(body: str, env_extra=None) -> subprocess.CompletedProcess:
    """Run a python snippet in a fresh interpreter with src importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


# -- blob framing and adoption ----------------------------------------------


class TestBlob:
    def test_round_trip(self):
        payload = b"the quick brown fox" * 100
        name = publish_blob("repro-test-roundtrip", payload)
        assert name in published_segments()
        view = attach_blob(name)
        assert view is not None and bytes(view) == payload

    def test_rejects_unprefixed_name(self):
        with pytest.raises(BatchError, match="must start with"):
            publish_blob("evil-name", b"x")

    def test_publish_same_name_twice_is_noop(self):
        publish_blob("repro-test-idem", b"abc")
        publish_blob("repro-test-idem", b"abc")
        assert published_segments().count("repro-test-idem") == 1

    def test_missing_segment_attaches_as_none(self):
        assert attach_blob("repro-test-does-not-exist") is None

    def test_garbage_segment_attaches_as_none(self):
        shm = shared_memory.SharedMemory(
            name="repro-test-garbage", create=True, size=64
        )
        try:
            shm.buf[:8] = b"NOTMAGIC"
            assert attach_blob("repro-test-garbage") is None
        finally:
            detach_all()
            shm.unlink()
            shm.close()

    def test_truncated_blob_attaches_as_none(self):
        blob = _wrap(b"p" * 100)
        shm = shared_memory.SharedMemory(
            name="repro-test-trunc", create=True, size=len(blob) - 40
        )
        try:
            shm.buf[:] = blob[: len(blob) - 40]
            assert attach_blob("repro-test-trunc") is None
        finally:
            detach_all()
            shm.unlink()
            shm.close()

    def test_stale_matching_segment_is_adopted(self):
        """A segment left by a hard-killed previous parent (same
        content) is adopted, not duplicated, and unlinked at exit."""
        payload = b"stale but identical"
        child = _run_child(
            """
            import os
            from multiprocessing import resource_tracker
            from repro.shm.blob import publish_blob
            publish_blob("repro-test-stale", %r)
            # A SIGKILLed parent takes its resource tracker with it;
            # unregister + hard-exit reproduces that: no atexit unlink,
            # no tracker cleanup -> the segment survives us.
            resource_tracker.unregister("/repro-test-stale", "shared_memory")
            os._exit(0)
            """
            % payload
        )
        assert child.returncode == 0, child.stderr
        assert "repro-test-stale" in _shm_listing()
        name = publish_blob("repro-test-stale", payload)
        view = attach_blob(name)
        assert view is not None and bytes(view) == payload
        unlink_all()
        assert "repro-test-stale" not in _shm_listing()

    def test_stale_mismatched_segment_is_replaced(self):
        child = _run_child(
            """
            import os
            from multiprocessing import resource_tracker
            from repro.shm.blob import publish_blob
            publish_blob("repro-test-swap", b"old content")
            resource_tracker.unregister("/repro-test-swap", "shared_memory")
            os._exit(0)
            """
        )
        assert child.returncode == 0, child.stderr
        name = publish_blob("repro-test-swap", b"new content")
        view = attach_blob(name)
        assert view is not None and bytes(view) == b"new content"


# -- SCL tensors over shm ---------------------------------------------------


class TestSclShm:
    def test_child_attaches_bit_identical_library(self):
        """The child re-derives the segment name from its own
        fingerprints (content-hash agreement) and must see exactly the
        records the parent published."""
        from repro.scl.library import KINDS, default_scl
        from repro.shm.scl import publish_default_scl

        scl = default_scl()
        name = publish_default_scl()
        assert name is not None and name.startswith("repro-scl-")
        child = _run_child(
            """
            import json
            from repro.scl.library import KINDS, default_scl_source
            from repro.shm.scl import attach_default_scl
            scl = attach_default_scl()
            assert scl is not None, "attach missed"
            assert default_scl_source() == "shm"
            out = {}
            for kind in KINDS:
                for (variant, dim), rec in scl.table(kind).items():
                    out["%s/%s/%d" % (kind, variant, dim)] = [
                        rec.delay_ns, rec.energy_pj, rec.area_um2,
                        rec.leakage_mw, rec.cells,
                        list(rec.stage_delays_ns),
                    ]
            print(json.dumps(out))
            """
        )
        assert child.returncode == 0, child.stderr
        import json

        got = json.loads(child.stdout)
        want = {}
        for kind in KINDS:
            for (variant, dim), rec in scl.table(kind).items():
                want[f"{kind}/{variant}/{dim}"] = [
                    rec.delay_ns,
                    rec.energy_pj,
                    rec.area_um2,
                    rec.leakage_mw,
                    rec.cells,
                    list(rec.stage_delays_ns),
                ]
        assert got == want  # float64 round-trips bit-exactly

    def test_attach_without_publisher_misses(self):
        child = _run_child(
            """
            from repro.shm.scl import attach_default_scl
            from repro.scl.library import default_scl_source
            assert attach_default_scl() is None
            assert default_scl_source() is None
            """
        )
        assert child.returncode == 0, child.stderr


# -- leak guarantees under process death ------------------------------------


def _assert_clean(child: subprocess.CompletedProcess) -> None:
    assert child.returncode == 0, child.stderr
    assert _shm_listing() == [], "leaked segments: %s" % _shm_listing()
    for needle in ("resource_tracker", "leaked shared_memory"):
        assert needle not in child.stderr, child.stderr


_BATCH_PROLOGUE = """
import os, sys
from repro import CompileOptions
from repro.batch.engine import BatchCompiler
from repro.batch.jobs import CompileJob
from repro.spec import INT4, MacroSpec
specs = [
    MacroSpec(height=8, width=8, mcr=2, input_formats=(INT4,),
              weight_formats=(INT4,), mac_frequency_mhz=200.0 + 25.0 * i)
    for i in range(4)
]
"""


class TestPoolLeaks:
    """Each scenario runs a real worker pool in a fresh interpreter and
    then sweeps ``/dev/shm``: the parent's atexit unlink must win no
    matter how the pool died, and no resource_tracker warning may
    appear on stderr."""

    def test_crashing_workers_leave_no_leaks(self, tmp_path):
        child = _run_child(
            _BATCH_PROLOGUE
            + textwrap.dedent("""
            from repro.shm.blob import published_segments
            engine = BatchCompiler(jobs=2, use_cache=False,
                                   options=CompileOptions(retries=2))
            batch = engine.compile_specs(specs, implement=False)
            assert published_segments(), "parent published nothing"
            assert all(r["status"] == "ok" for r in batch.records)
            """),
            env_extra={
                "REPRO_FAULTS": "crash:1.0:first",
                "REPRO_FAULT_SEED": "3",
            },
        )
        _assert_clean(child)

    def test_watchdog_killed_pool_leaves_no_leaks(self, tmp_path):
        child = _run_child(
            _BATCH_PROLOGUE
            + textwrap.dedent("""
            engine = BatchCompiler(jobs=2, cache_dir=%r,
                                   options=CompileOptions(job_timeout_s=1.0,
                                                          retries=1))
            batch = engine.compile_specs(specs[:2], implement=False)
            assert len(batch.records) == 2  # hang -> timeout, not a wedge
            """)
            % str(tmp_path / "cache"),
            env_extra={
                "REPRO_FAULTS": "hang:1.0",
                "REPRO_FAULT_HANG_S": "30.0",
                "REPRO_FAULT_SEED": "0",
            },
        )
        _assert_clean(child)

    def test_chaos_sweep_leaves_no_leaks(self, tmp_path):
        child = _run_child(
            _BATCH_PROLOGUE
            + textwrap.dedent("""
            engine = BatchCompiler(jobs=4, cache_dir=%r,
                                   options=CompileOptions(job_timeout_s=2.0,
                                                          retries=2))
            batch = engine.compile_specs(specs, implement=False)
            assert len(batch.records) == len(specs)
            """)
            % str(tmp_path / "chaos"),
            env_extra={
                "REPRO_FAULTS": "crash:0.3,hang:0.1,corrupt_cache:0.1",
                "REPRO_FAULT_HANG_S": "30.0",
                "REPRO_FAULT_SEED": "11",
            },
        )
        _assert_clean(child)

    def test_workers_resolve_scl_from_shm(self):
        """Pool workers must see ``default_scl_source() == "shm"`` —
        the attach path, not a rebuild — proving the zero-copy publish
        actually carries."""
        child = _run_child(
            _BATCH_PROLOGUE
            + textwrap.dedent("""
            from repro.batch.engine import BatchCompiler
            import test_probe_shm  # noqa: F401  (picklable probe fn)
            engine = BatchCompiler(jobs=2, use_cache=False)
            sources = engine.map(test_probe_shm.scl_source, [0, 1, 2, 3])
            assert sources == ["shm"] * 4, sources
            """),
            env_extra={
                "PYTHONPATH": SRC
                + os.pathsep
                + os.path.dirname(os.path.abspath(__file__))
            },
        )
        _assert_clean(child)
