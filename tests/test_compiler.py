"""Compiler integration: implementation flow, SynDCIM facade, baselines.

These are end-to-end runs on small macros (seconds, not minutes); the
benchmarks exercise the paper-size configurations.
"""

import pytest

from repro.arch import MacroArchitecture
from repro.baselines.arctic import ArcticCompiler
from repro.baselines.autodcim import AutoDCIMCompiler, template_architecture
from repro.baselines.manual import SOTA_MACROS
from repro.compiler.flow import implement
from repro.compiler.report import format_pareto_ascii, format_table
from repro.compiler.syndcim import SynDCIM
from repro.errors import SearchError
from repro.spec import INT4, INT8, MacroSpec


def table2_rows():
    """Rows for the Table II comparison: published numbers + normalization."""
    return [
        [
            m.name,
            f"{m.node_nm}nm",
            m.array,
            m.precision,
            f"{m.supply_v:.2f}V",
            m.tops_per_watt,
            m.tops_per_mm2,
            m.tops_per_watt_1b,
            m.tops_per_mm2_1b,
        ]
        for m in SOTA_MACROS
    ]


@pytest.fixture(scope="module")
def small16():
    return MacroSpec(
        height=16,
        width=16,
        mcr=2,
        input_formats=(INT4,),
        weight_formats=(INT4,),
        mac_frequency_mhz=500.0,
    )


@pytest.fixture(scope="module")
def implemented(small16, scl):
    compiler = SynDCIM(scl=scl)
    return compiler.compile(small16)


class TestFlow:
    def test_signoff_clean(self, implemented):
        impl = implemented.implementation
        assert impl is not None
        assert impl.drc.clean
        assert impl.lvs.clean
        assert impl.timing.met
        assert impl.signoff_clean

    def test_post_layout_meets_spec_frequency(self, implemented, small16):
        impl = implemented.implementation
        assert impl.max_frequency_mhz >= small16.mac_frequency_mhz

    def test_artifacts_exported(self, implemented):
        impl = implemented.implementation
        v = impl.verilog()
        assert v.startswith("module")
        g = impl.gds()
        assert '"record": "HEADER"' in g
        assert "implementation of" in impl.report()

    def test_summary_keys(self, implemented):
        s = implemented.implementation.summary()
        for key in (
            "area_um2",
            "max_frequency_mhz",
            "power_mw",
            "energy_per_cycle_pj",
            "congestion",
        ):
            assert key in s and s[key] > 0

    def test_force_reimplement_matches_cached(self, implemented, small16):
        """A forced warm re-implement replays the arena and must agree
        with the memoized implementation bit-for-bit."""
        import numpy as np

        from repro.compiler.flow import ImplementSession

        session = ImplementSession(spec=small16)
        arch = implemented.selected.arch
        cold = session.implement(arch)
        warm = session.implement(arch, force=True)
        assert warm is not cold
        assert warm.min_period_ns == cold.min_period_ns
        assert warm.timing.wns_ns == cold.timing.wns_ns
        assert warm.power.total_mw == cold.power.total_mw
        assert warm.drc.clean and warm.lvs.clean
        assert warm.placement.names == cold.placement.names
        assert np.array_equal(warm.placement.coords, cold.placement.coords)
        # Route reuse hands back the same estimate object, so its cap
        # array keeps STA's identity-keyed propagation memo warm.
        assert warm.routing is cold.routing
        flat, _ = session.netlist(arch)
        stats = session._arena.stats(flat, session.library)
        assert stats["place_replays"] >= 1
        assert stats["route_reuses"] >= 1

    def test_estimate_vs_implementation_consistency(self, implemented):
        """LUT estimate and signoff must agree within calibration bands
        (the searcher would otherwise optimize the wrong thing)."""
        est = implemented.selected
        impl = implemented.implementation
        assert impl.min_period_ns <= est.critical_path_ns * 1.45
        assert est.area_um2 / impl.area_um2 < 2.2
        assert impl.area_um2 / est.area_um2 < 2.2


class TestSynDCIM:
    def test_search_only_mode(self, small16, scl):
        result = SynDCIM(scl=scl).compile(small16, implement_design=False)
        assert result.implementation is None
        assert result.frontier

    def test_explicit_choice(self, small16, scl):
        compiler = SynDCIM(scl=scl)
        result = compiler.compile(small16, implement_design=False)
        choice = result.frontier[-1].arch
        chosen = compiler.compile(
            small16, choose=choice, implement_design=False
        )
        assert chosen.selected.arch == choice

    def test_bad_choice_rejected(self, small16, scl):
        compiler = SynDCIM(scl=scl)
        bogus = MacroArchitecture(memcell="DCIM12T", driver_strength=8,
                                  tree_style="rca", column_split=2)
        with pytest.raises(SearchError):
            compiler.compile(small16, choose=bogus, implement_design=False)

    def test_report_text(self, implemented):
        text = implemented.report()
        assert "selected:" in text
        assert "Pareto" in text


class TestBaselines:
    def test_autodcim_uses_fixed_template(self, small16, scl):
        result = AutoDCIMCompiler(scl).compile(small16)
        assert result.estimate.arch == template_architecture(small16)

    def test_syndcim_dominates_autodcim_at_tight_timing(self, scl):
        """The Fig. 8 story: the searched design meets the frequency the
        template cannot."""
        spec = MacroSpec(
            height=64,
            width=64,
            mcr=2,
            input_formats=(INT4, INT8),
            weight_formats=(INT4, INT8),
            mac_frequency_mhz=800.0,
        )
        auto = AutoDCIMCompiler(scl).compile(spec)
        syn = SynDCIM(scl=scl).compile(spec, implement_design=False)
        assert not auto.meets_timing
        assert syn.selected.met

    def test_arctic_fixes_with_pipeline_only(self, scl):
        spec = MacroSpec(
            height=64,
            width=64,
            mcr=2,
            input_formats=(INT4, INT8),
            weight_formats=(INT4, INT8),
            mac_frequency_mhz=800.0,
        )
        result = ArcticCompiler(scl).compile(spec)
        # Never touches the datapath style.
        assert result.estimate.arch.tree_style == "cmp42"
        assert result.estimate.arch.mult_style == "tg_nor"
        if result.meets_timing:
            assert result.pipeline_steps_used > 0

    def test_sota_table_rows(self):
        rows = table2_rows()
        assert len(rows) == len(SOTA_MACROS)
        assert any("TSMC" in str(r[0]) for r in rows)

    def test_1b_normalization(self):
        macro = SOTA_MACROS[0]
        assert macro.tops_per_watt_1b == pytest.approx(
            macro.tops_per_watt * 16
        )


class TestReportHelpers:
    def test_format_table(self):
        text = format_table(
            ["name", "x"], [["a", 1.0], ["long-name", 123.456]]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "123.5" in text

    def test_pareto_ascii(self):
        pts = [(1.0, 2.0, 0), (2.0, 1.0, 1)]
        art = format_pareto_ascii(pts, "area", "power")
        assert "o" in art and "*" in art
        assert "area" in art and "power" in art
