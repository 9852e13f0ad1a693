"""Multi-spec-oriented searcher: estimation, fixes, Algorithm 1, Pareto."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import MacroArchitecture
from repro.errors import SearchError
from repro.search.algorithm import MSOSearcher, seed_architectures
from repro.search.estimate import estimate_macro
from repro.search.fixes import (
    MAC_FIXES,
    OFU_FIXES,
    TUNING_MOVES,
    faster_adder,
    merge_sna_register,
    ofu_retime,
    split_column,
)
from repro.search.pareto import dominates, hypervolume_2d, pareto_front
from repro.spec import FP8, INT4, INT8, MacroSpec, PPAWeights


class TestEstimate:
    def test_segments_cover_pipeline(self, paper_spec, scl):
        est = estimate_macro(paper_spec, MacroArchitecture(), scl)
        names = [s.name for s in est.segments]
        assert "mac_front" in names
        assert any(n.startswith("ofu") for n in names)

    def test_merged_registers_merge_segments(self, paper_spec, scl):
        merged = estimate_macro(
            paper_spec, MacroArchitecture(reg_after_tree=False), scl
        )
        assert any("mac_front_sna" == s.name for s in merged.segments)

    def test_retiming_splits_ofu(self, paper_spec, scl):
        est = estimate_macro(
            paper_spec,
            MacroArchitecture(ofu_retimed=True, reg_after_sna=True),
            scl,
        )
        ofu_segs = [s for s in est.segments if s.name.startswith("ofu")]
        assert len(ofu_segs) == 2

    def test_csel_cuts_ofu_delay(self, paper_spec, scl):
        base = estimate_macro(paper_spec, MacroArchitecture(), scl)
        fast = estimate_macro(
            paper_spec, MacroArchitecture(ofu_csel=True), scl
        )
        base_ofu = max(
            s.delay_ns for s in base.segments if s.name.startswith("ofu")
        )
        fast_ofu = max(
            s.delay_ns for s in fast.segments if s.name.startswith("ofu")
        )
        assert fast_ofu < base_ofu
        assert fast.area_um2 > base.area_um2

    def test_column_split_shortens_mac_front(self, paper_spec, scl):
        base = estimate_macro(paper_spec, MacroArchitecture(), scl)
        split = estimate_macro(
            paper_spec, MacroArchitecture(column_split=2), scl
        )
        front = lambda e: [s for s in e.segments if "mac_front" in s.name][0]
        assert front(split).delay_ns < front(base).delay_ns

    def test_area_grows_with_array(self, scl):
        small = estimate_macro(
            MacroSpec(height=32, width=32), MacroArchitecture(), scl
        )
        big = estimate_macro(
            MacroSpec(height=128, width=128), MacroArchitecture(), scl
        )
        assert big.area_um2 > 3 * small.area_um2

    def test_power_includes_leakage(self, paper_spec, scl):
        est = estimate_macro(paper_spec, MacroArchitecture(), scl)
        assert est.power_mw > est.leakage_mw > 0

    def test_fp_mode_costs_more_energy(self, scl):
        spec = MacroSpec(
            height=64,
            width=64,
            input_formats=(INT4, FP8),
            weight_formats=(INT4, FP8),
        )
        int_mode = estimate_macro(
            spec, MacroArchitecture(), scl, mode=(INT4, INT4)
        )
        fp_mode = estimate_macro(
            spec, MacroArchitecture(), scl, mode=(FP8, FP8)
        )
        assert fp_mode.energy_per_cycle_pj > int_mode.energy_per_cycle_pj

    def test_throughput_math(self, scl):
        spec = MacroSpec(
            height=64,
            width=64,
            input_formats=(INT4,),
            weight_formats=(INT4,),
            mac_frequency_mhz=1000.0,
        )
        est = estimate_macro(spec, MacroArchitecture(), scl)
        # 64 rows * 16 words / 4 serial bits = 256 MACs/cycle
        assert est.macs_per_cycle == pytest.approx(256.0)
        assert est.tops == pytest.approx(0.512)


class TestFixes:
    def test_faster_adder_escalation_chain(self):
        spec = MacroSpec()
        arch = MacroArchitecture(tree_style="cmp42")
        a1 = faster_adder(spec, arch)
        assert a1.tree_style == "mixed" and a1.tree_fa_levels == 1
        a2 = faster_adder(spec, a1)
        assert a2.tree_fa_levels == 2
        a3 = faster_adder(spec, faster_adder(spec, a2) or a2)
        # saturates at 3
        assert faster_adder(spec, MacroArchitecture(tree_style="mixed", tree_fa_levels=3)) is None

    def test_split_column_bounded(self):
        spec = MacroSpec(height=16, width=16)
        arch = MacroArchitecture(column_split=4)
        assert split_column(spec, arch) is None

    def test_ofu_retime_requires_register(self):
        spec = MacroSpec()
        out = ofu_retime(spec, MacroArchitecture(reg_after_sna=False))
        assert out.reg_after_sna and out.ofu_retimed

    def test_merge_respects_retiming(self):
        spec = MacroSpec()
        held = MacroArchitecture(ofu_retimed=True, reg_after_sna=True)
        assert merge_sna_register(spec, held) is None
        free = MacroArchitecture(ofu_retimed=False, reg_after_sna=True)
        assert merge_sna_register(spec, free).reg_after_sna is False

    def test_all_moves_return_valid_archs(self, paper_spec):
        for name, move in MAC_FIXES + OFU_FIXES + TUNING_MOVES:
            result = move(paper_spec, MacroArchitecture())
            if result is not None:
                result.validate_against(paper_spec)


class TestPareto:
    def test_dominates(self):
        assert dominates((1, 1), (2, 2))
        assert not dominates((1, 3), (2, 2))
        assert not dominates((1, 1), (1, 1))

    @given(
        st.lists(
            st.tuples(st.floats(0.1, 10), st.floats(0.1, 10)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50)
    def test_front_is_mutually_nondominated(self, pts):
        front = pareto_front(pts, lambda p: p)
        for a in front:
            for b in front:
                if a is not b:
                    assert not dominates(a, b)
        # every point is dominated by or equal to someone on the front
        for p in pts:
            assert any(
                dominates(f, p) or tuple(f) == tuple(p) for f in front
            )

    def test_hypervolume(self):
        hv = hypervolume_2d([(1.0, 1.0)], reference=(2.0, 2.0))
        assert hv == pytest.approx(1.0)
        hv2 = hypervolume_2d([(1.0, 1.5), (1.5, 1.0)], reference=(2.0, 2.0))
        assert hv2 == pytest.approx(0.75)


class TestAlgorithm:
    def test_search_meets_timing_on_paper_spec(self, paper_spec, scl):
        result = MSOSearcher(scl).search(paper_spec)
        assert result.frontier, "paper spec must be feasible"
        assert all(e.met for e in result.frontier)

    def test_frontier_is_nondominated(self, paper_spec, scl):
        result = MSOSearcher(scl).search(paper_spec)
        objs = [(e.power_mw, e.area_um2) for e in result.frontier]
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not dominates(a, b)

    def test_fix_counts_populated(self, paper_spec, scl):
        result = MSOSearcher(scl).search(paper_spec)
        assert result.fix_counts, "a violated seed must trigger fixes"

    def test_ppa_weights_steer_selection(self, paper_spec, scl):
        result = MSOSearcher(scl).search(paper_spec)
        if len(result.frontier) < 2:
            pytest.skip("frontier collapsed to one point")
        power_pick = result.select(PPAWeights(power=10, performance=1, area=1))
        area_pick = result.select(PPAWeights(power=1, performance=1, area=10))
        assert power_pick.power_mw <= area_pick.power_mw
        assert area_pick.area_um2 <= power_pick.area_um2

    def test_easy_spec_needs_no_big_hammer(self, scl):
        easy = MacroSpec(
            height=32,
            width=32,
            input_formats=(INT4,),
            weight_formats=(INT4,),
            mac_frequency_mhz=200.0,
        )
        result = MSOSearcher(scl).search(easy)
        assert result.frontier
        assert all(e.arch.column_split == 1 for e in result.frontier)

    def test_impossible_spec_reports_infeasible(self, scl):
        crazy = MacroSpec(
            height=256,
            width=64,
            input_formats=(INT8,),
            weight_formats=(INT8,),
            mac_frequency_mhz=5000.0,
        )
        result = MSOSearcher(scl).search(crazy)
        with pytest.raises(SearchError):
            result.select()

    def test_seeds_are_diverse_and_valid(self, paper_spec):
        seeds = seed_architectures(paper_spec)
        assert len(seeds) >= 4
        assert len({a.knob_summary() for _, a in seeds}) == len(seeds)

    def test_oai22_seed_dropped_for_deep_mcr(self):
        spec = MacroSpec(mcr=4)
        assert all(
            a.mult_style != "oai22" for _, a in seed_architectures(spec)
        )

    def test_trace_records_moves(self, paper_spec, scl):
        """The search counts each repair move it applies."""
        result = MSOSearcher(scl).search(paper_spec)
        assert all(n > 0 for n in result.fix_counts.values())
        assert "seed" not in result.fix_counts
        assert set(result.fix_counts) & {
            "faster_adder",
            "ofu_retime",
            "ofu_faster_adder",
            "column_split",
            "ofu_pipeline",
        }
