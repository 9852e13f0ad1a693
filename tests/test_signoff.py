"""Multi-corner PVT signoff: corner model, corner-characterized SCL
cache, flow integration and worst-corner escalation.

The corner model is pure arithmetic over the process model, so most
checks are exact; the flow-level checks run on the small 8x8 spec to
keep the netlist work in milliseconds.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import SpecificationError, TimingError
from repro.signoff.corners import (
    CORNER_SET_PRESETS,
    SIGNOFF3,
    SIGNOFF_CORNERS,
    TYPICAL,
    Corner,
    CornerSet,
    parse_corners,
)
from repro.signoff.evaluate import corner_power
from repro.tech.process import CORNERS, GENERIC_40NM


class TestCornerModel:
    def test_nominal_corner_is_identity(self, process):
        tt = SIGNOFF_CORNERS["TT"]
        assert tt.timing_derate(process) == pytest.approx(1.0)
        assert tt.energy_scale(process) == pytest.approx(1.0)
        assert tt.leakage_scale(process) == pytest.approx(1.0)

    def test_composition_axes_multiply(self, process):
        ss = SIGNOFF_CORNERS["SS"]
        expected = (
            CORNERS["SS"].delay_factor
            * process.delay_scale(ss.vdd(process))
            * process.temperature_delay_scale(ss.temp_c)
        )
        assert ss.timing_derate(process) == pytest.approx(expected)
        # Each axis contributes: dropping any one lowers the derate.
        no_droop = Corner("x", "SS", vdd_scale=1.0, temp_c=125.0)
        no_heat = Corner("y", "SS", vdd_scale=0.98, temp_c=25.0)
        assert no_droop.timing_derate(process) < ss.timing_derate(process)
        assert no_heat.timing_derate(process) < ss.timing_derate(process)

    def test_derate_ordering_ss_tt_ff(self, process):
        derates = {
            name: c.timing_derate(process)
            for name, c in SIGNOFF_CORNERS.items()
        }
        assert derates["SS"] > derates["TT"] > derates["FF"]

    def test_ff_is_the_power_envelope(self, process):
        ff = SIGNOFF_CORNERS["FF"]
        assert ff.energy_scale(process) > 1.0  # CV^2 at overdrive
        # Hot FF at overdrive leaks far more than nominal TT.
        assert ff.leakage_scale(process) > 5.0

    def test_vdd_clamped_into_process_window(self, process):
        high = Corner("hot", "TT", vdd_scale=10.0)
        low = Corner("cold", "TT", vdd_scale=0.01)
        assert high.vdd(process) == process.vdd_max
        assert low.vdd(process) == process.vdd_min

    def test_unknown_process_corner_rejected(self):
        with pytest.raises(SpecificationError):
            Corner("bad", "XX")

    def test_temperature_model(self, process):
        assert process.temperature_delay_scale(25.0) == pytest.approx(1.0)
        assert process.temperature_delay_scale(125.0) > 1.0
        assert process.temperature_delay_scale(-40.0) < 1.0
        assert process.temperature_leakage_scale(125.0) > 5.0
        assert process.temperature_leakage_scale(-40.0) < 0.5


class TestCornerSet:
    def test_presets(self, process):
        assert TYPICAL.names == ("TT",)
        assert SIGNOFF3.names == ("SS", "TT", "FF")
        assert SIGNOFF3.worst_timing(process).name == "SS"
        assert set(CORNER_SET_PRESETS) == {"typical", "signoff3"}

    def test_parse_names_and_presets(self):
        assert parse_corners("SS,TT,FF").names == ("SS", "TT", "FF")
        assert parse_corners("ss , tt").names == ("SS", "TT")
        assert parse_corners("signoff3") is SIGNOFF3
        assert parse_corners("typical") is TYPICAL

    def test_parse_rejects_unknown_and_empty(self):
        with pytest.raises(SpecificationError):
            parse_corners("SS,XX")
        with pytest.raises(SpecificationError):
            parse_corners("")
        with pytest.raises(SpecificationError):
            parse_corners(" , ,")

    def test_duplicates_rejected(self):
        ss = SIGNOFF_CORNERS["SS"]
        with pytest.raises(SpecificationError):
            CornerSet("dup", (ss, ss))

    def test_empty_rejected(self):
        with pytest.raises(SpecificationError):
            CornerSet("none", ())


class TestCornerScl:
    def test_cache_key_carries_corner(self, library, process):
        from repro.scl.cache import scl_cache_key

        base = scl_cache_key(library, process)
        ss = scl_cache_key(library, process, SIGNOFF_CORNERS["SS"])
        ff = scl_cache_key(library, process, SIGNOFF_CORNERS["FF"])
        assert len({base, ss, ff}) == 3
        # Same corner -> same key (stable across calls).
        assert ss == scl_cache_key(library, process, SIGNOFF_CORNERS["SS"])

    def test_corner_characterization_derates_records(self, process):
        from repro.scl.library import default_scl

        base = default_scl(process)
        ss = default_scl(process, corner=SIGNOFF_CORNERS["SS"])
        assert ss.corner is SIGNOFF_CORNERS["SS"]
        derate = SIGNOFF_CORNERS["SS"].timing_derate(process)
        r0 = base.lookup("adder_tree", "cmp42-fa0-n", 64)
        r1 = ss.lookup("adder_tree", "cmp42-fa0-n", 64)
        # Real derated STA: the delay moves with (close to, because the
        # slew terms are not derated) the composed corner derate, and
        # never by less than 1x or more than the full derate.
        assert 1.0 < r1.delay_ns / r0.delay_ns <= derate + 1e-9
        assert r1.delay_ns / r0.delay_ns == pytest.approx(derate, rel=0.02)
        # Leakage carries sigma x DIBL x temperature; area is intensive.
        assert r1.leakage_mw / r0.leakage_mw == pytest.approx(
            SIGNOFF_CORNERS["SS"].leakage_scale(process), rel=1e-6
        )
        assert r1.area_um2 == r0.area_um2
        assert r1.cells == r0.cells

    def test_corner_artifact_roundtrips_across_processes(self, tmp_path):
        """A corner library persisted by one process loads (source
        'disk', identical records) in a fresh interpreter."""
        import repro

        env = dict(os.environ)
        env["REPRO_SCL_CACHE"] = str(tmp_path)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = """
import json, sys
from repro.scl.library import default_scl, default_scl_source
from repro.signoff.corners import SIGNOFF_CORNERS
ss = default_scl(corner=SIGNOFF_CORNERS["SS"])
rec = ss.lookup("ofu", "c4-rpl", 16)
print(json.dumps({
    "source": default_scl_source(corner=SIGNOFF_CORNERS["SS"]),
    "delay": rec.delay_ns,
    "entries": ss.entry_count(),
}))
"""
        runs = [
            json.loads(
                subprocess.run(
                    [sys.executable, "-c", code],
                    capture_output=True,
                    text=True,
                    check=True,
                    env=env,
                ).stdout
            )
            for _ in range(2)
        ]
        assert runs[0]["source"] == "built"
        assert runs[1]["source"] == "disk"
        assert runs[0]["delay"] == runs[1]["delay"]
        assert runs[0]["entries"] == runs[1]["entries"]

    def test_corner_artifact_never_serves_other_corner(
        self, tmp_path, monkeypatch, library, process
    ):
        """The SS artifact must read as a miss for FF/nominal lookups
        (distinct keys), not as silently wrong numbers."""
        monkeypatch.setenv("REPRO_SCL_CACHE", str(tmp_path))
        from repro.scl.builder import build_default_scl
        from repro.scl.cache import load_cached_scl, store_cached_scl

        ss = SIGNOFF_CORNERS["SS"]
        scl = build_default_scl(
            library, process, tree_sizes=(8,), corner=ss
        )
        # Partial grid is fine for cache plumbing checks.
        path = store_cached_scl(scl)
        assert path is not None and path.is_file()
        loaded = load_cached_scl(library, process, ss)
        assert loaded is not None
        assert loaded.entry_count() == scl.entry_count()
        assert load_cached_scl(library, process) is None
        assert (
            load_cached_scl(library, process, SIGNOFF_CORNERS["FF"]) is None
        )


def _small_signoff_spec():
    """Same 8x8 point as the ``small_spec`` fixture, constructible from
    the class-scoped fixture below (scopes cannot mix)."""
    from repro.spec import INT4, MacroSpec

    return MacroSpec(
        height=8,
        width=8,
        mcr=2,
        input_formats=(INT4,),
        weight_formats=(INT4,),
        mac_frequency_mhz=400.0,
    )


class TestMultiCornerSignoff:
    @pytest.fixture(scope="class")
    def implemented(self):
        from repro.compiler.flow import ImplementSession
        from repro.search.algorithm import search

        spec = _small_signoff_spec()
        result = search(spec)
        arch = result.select()
        session = ImplementSession(spec, corners=SIGNOFF3)
        return session.implement(arch.arch)

    def test_per_corner_results(self, implemented):
        report = implemented.signoff
        assert report is not None
        assert [r.corner.name for r in report.results] == ["SS", "TT", "FF"]
        assert report.clock_period_ns == pytest.approx(
            _small_signoff_spec().mac_period_ns
        )
        # fmax ordering follows the derates.
        assert (
            report.corner("SS").fmax_mhz
            < report.corner("TT").fmax_mhz
            < report.corner("FF").fmax_mhz
        )

    def test_tt_corner_matches_nominal_analysis(self, implemented):
        tt = implemented.signoff.corner("TT")
        # The nominal path probes at a 1e9 ns period, which costs ~1e-8
        # relative float precision versus the corner's real-period run.
        assert tt.min_period_ns == pytest.approx(
            implemented.min_period_ns, rel=1e-6
        )
        assert tt.power.total_mw == pytest.approx(
            implemented.power.total_mw, rel=1e-9
        )

    def test_corner_timing_scales_with_derate(self, implemented):
        ss = implemented.signoff.corner("SS")
        # Global derate: close to linear in min-period (setup windows
        # and clock-to-Q launch offsets are not derated, so the full
        # macro lands a few percent under the composed derate).
        assert ss.min_period_ns / implemented.min_period_ns == pytest.approx(
            ss.timing_derate, rel=0.05
        )
        assert ss.min_period_ns > implemented.min_period_ns

    def test_corner_power_scaling(self, implemented, process):
        nominal = implemented.power
        ff = implemented.signoff.corner("FF")
        corner = ff.corner
        scaled = corner_power(nominal, corner, process)
        assert ff.power.switching_mw == pytest.approx(
            nominal.switching_mw * corner.energy_scale(process)
        )
        assert ff.power.leakage_mw == pytest.approx(
            nominal.leakage_mw * corner.leakage_scale(process)
        )
        assert scaled.total_mw == pytest.approx(ff.power.total_mw)
        assert ff.power.vdd == pytest.approx(corner.vdd(process))

    def test_worst_corner_and_clean(self, implemented):
        report = implemented.signoff
        assert report.worst.corner.name == "SS"
        assert report.clean == report.corner("SS").met
        assert implemented.signoff_clean == (
            implemented.drc.clean
            and implemented.lvs.clean
            and report.clean
        )
        assert implemented.worst_corner == "SS"

    def test_report_projection_and_describe(self, implemented):
        data = implemented.signoff.to_dict()
        assert data["worst_corner"] == "SS"
        assert set(data["corners"]) == {"SS", "TT", "FF"}
        for entry in data["corners"].values():
            assert {"fmax_mhz", "power_mw", "slack_ns", "timing_met"} <= set(
                entry
            )
        text = implemented.signoff.describe()
        assert "SS" in text and "worst corner" in text

    def test_unknown_corner_lookup_raises(self, implemented):
        with pytest.raises(TimingError):
            implemented.signoff.corner("XX")

    def test_signoff_report_requires_results(self):
        from repro.signoff.evaluate import SignoffReport

        with pytest.raises(TimingError):
            SignoffReport(corner_set="x", clock_period_ns=1.0, results=())

    def test_nominal_only_flow_unchanged(self, small_spec):
        """No corners -> no signoff report, historical semantics."""
        from repro.compiler.flow import ImplementSession
        from repro.search.algorithm import search

        arch = search(small_spec).select().arch
        impl = ImplementSession(small_spec).implement(arch)
        assert impl.signoff is None
        assert impl.worst_corner is None
        assert impl.timing_met_signoff == impl.timing.met


class TestSearcherSignoff:
    def test_search_records_signoff_slack(self, small_spec, scl):
        from repro.scl.library import default_scl
        from repro.search.algorithm import MSOSearcher

        worst = SIGNOFF3.worst_timing(GENERIC_40NM)
        signoff_scl = default_scl(corner=worst)
        searcher = MSOSearcher(scl, signoff_scl=signoff_scl)
        result = searcher.search(small_spec)
        assert result.signoff_corner == "SS"
        assert result.frontier
        for est in result.frontier:
            assert result.signoff_slack(est) is not None
        # SS slack is strictly tighter than TT slack.
        for est in result.frontier:
            assert result.signoff_slack(est) < est.slack_ns

    def test_select_prefers_signoff_met(self, small_spec, scl):
        from repro.scl.library import default_scl
        from repro.search.algorithm import MSOSearcher

        worst = SIGNOFF3.worst_timing(GENERIC_40NM)
        searcher = MSOSearcher(
            scl, signoff_scl=default_scl(corner=worst)
        )
        result = searcher.search(small_spec)
        selected = result.select()
        slack = result.signoff_slack(selected)
        met = [
            e
            for e in result.frontier
            if result.signoff_slack(e) is not None
            and result.signoff_slack(e) >= -1e-9
        ]
        if met:
            assert slack >= -1e-9

    def test_compile_escalates_to_ss_clean(self, small_spec):
        """End-to-end on the small spec: the corner-aware compile must
        sign off clean at the worst corner."""
        from repro.compiler.syndcim import SynDCIM

        result = SynDCIM(corners=SIGNOFF3).compile(small_spec)
        impl = result.implementation
        assert impl is not None
        assert impl.signoff is not None
        assert impl.signoff_clean, impl.signoff.describe()


class TestRecordsAndBatch:
    def test_implementation_record_carries_corners(self, small_spec):
        from repro.compiler.syndcim import SynDCIM, result_to_record

        result = SynDCIM(corners=SIGNOFF3).compile(small_spec)
        record = result_to_record(result)
        signoff = record["implementation"]["signoff"]
        assert signoff is not None
        assert set(signoff["corners"]) == {"SS", "TT", "FF"}
        assert record["search"]["signoff_corner"] == "SS"
        assert record["search"]["signoff_slacks"]
        # The record is JSON-serializable as the cache requires.
        json.dumps(record)

    def test_job_key_covers_corners(self, small_spec):
        from repro.batch.jobs import CompileJob
        from repro.options import CompileOptions

        corners = CompileOptions(corners=("SS", "TT", "FF"))
        plain = CompileJob(spec=small_spec)
        corner = CompileJob(small_spec, corners)
        assert plain.key() != corner.key()
        assert corner.payload()["options"]["corners"] == ["SS", "TT", "FF"]
        assert CompileJob(small_spec, corners).key() == corner.key()

    def test_execute_job_with_corners(self, small_spec):
        from repro.compiler.syndcim import execute_job

        job_payload = {
            "type": "compile",
            "spec": small_spec.to_dict(),
            "options": {"implement": True, "corners": ["SS", "TT", "FF"]},
        }
        record = execute_job(job_payload)
        assert record["status"] == "ok"
        signoff = record["implementation"]["signoff"]
        assert signoff["worst_corner"] == "SS"
        assert signoff["clean"] is True

    def test_execute_job_rejects_unknown_corner(self, small_spec):
        from repro.compiler.syndcim import execute_job

        record = execute_job(
            {
                "type": "compile",
                "spec": small_spec.to_dict(),
                "options": {"implement": False, "corners": ["XX"]},
            }
        )
        # A bad corner name is a malformed job, not an infeasible
        # design: it must come back as a (non-cacheable) error record.
        assert record["status"] == "error"
        assert "unknown signoff corner" in record["error"]

    def test_batch_engine_forwards_corners(self, small_spec, tmp_path):
        """Inline (jobs=1) batch run: the corner flag reaches the
        worker entry point and the records carry per-corner metrics."""
        from repro.batch.engine import BatchCompiler
        from repro.options import CompileOptions

        engine = BatchCompiler(
            jobs=1,
            cache_dir=tmp_path,
            options=CompileOptions(corners=("SS", "TT")),
        )
        result = engine.compile_specs([small_spec], implement=True)
        record = result.records[0]
        assert record["status"] == "ok"
        assert set(record["implementation"]["signoff"]["corners"]) == {
            "SS",
            "TT",
        }
        # Cached replay returns the same corner payload.
        replay = engine.compile_specs([small_spec], implement=True)
        assert replay.stats.cache_hits == 1
        assert (
            replay.records[0]["implementation"]["signoff"]
            == record["implementation"]["signoff"]
        )
        # A corner-less engine on the same cache dir misses (distinct
        # job keys) instead of serving corner records.
        plain = BatchCompiler(jobs=1, cache_dir=tmp_path)
        plain_result = plain.compile_specs([small_spec], implement=False)
        assert plain_result.stats.cache_hits == 0
