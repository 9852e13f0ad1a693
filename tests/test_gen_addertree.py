"""Adder-tree generators: functional correctness (including
property-based) and the Fig. 4 structural/PPA orderings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.gatesim import GateSimulator

from repro.errors import SynthesisError
from repro.power.estimator import estimate_power
from repro.rtl.gen.addertree import generate_adder_tree, tree_output_width
from repro.sta.analysis import minimum_period_ns
from repro.tech.process import GENERIC_40NM
from repro.tech.stdcells import default_library

LIB = default_library()


def _sum_of(sim, width):
    return sum(sim.net(f"sum[{i}]") << i for i in range(width))


def _check_tree(n, style, fa_levels=0, carry_reorder=True, vectors=12):
    mod, stats = generate_adder_tree(n, style, fa_levels, carry_reorder)
    flat = mod.flatten()
    flat.validate(LIB)
    sim = GateSimulator(flat, LIB)
    width = tree_output_width(n)
    import random

    rng = random.Random(n * 1000 + fa_levels)
    for _ in range(vectors):
        bits = [rng.randint(0, 1) for _ in range(n)]
        for i, bit in enumerate(bits):
            sim.set_input(f"in[{i}]", bit)
        sim.evaluate()
        assert _sum_of(sim, width) == sum(bits)
    # Edge vectors: all zeros, all ones.
    for value in (0, 1):
        for i in range(n):
            sim.set_input(f"in[{i}]", value)
        sim.evaluate()
        assert _sum_of(sim, width) == value * n
    return stats


class TestFunctional:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 16, 33, 64])
    def test_cmp42_counts_correctly(self, n):
        _check_tree(n, "cmp42")

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_rca_counts_correctly(self, n):
        _check_tree(n, "rca")

    @pytest.mark.parametrize("fa", [1, 2, 3])
    def test_mixed_counts_correctly(self, fa):
        _check_tree(32, "mixed", fa_levels=fa)

    def test_no_reorder_still_correct(self):
        _check_tree(16, "cmp42", carry_reorder=False)
        _check_tree(16, "mixed", fa_levels=2, carry_reorder=False)

    @settings(max_examples=40, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), min_size=24, max_size=24))
    def test_property_popcount_24(self, bits):
        mod, _ = generate_adder_tree(24, "mixed", fa_levels=1)
        sim = GateSimulator(mod.flatten(), LIB)
        for i, bit in enumerate(bits):
            sim.set_input(f"in[{i}]", bit)
        sim.evaluate()
        assert _sum_of(sim, tree_output_width(24)) == sum(bits)


class TestStructure:
    def test_output_width(self):
        assert tree_output_width(64) == 7
        assert tree_output_width(63) == 6
        assert tree_output_width(2) == 2

    def test_rejects_bad_args(self):
        with pytest.raises(SynthesisError):
            generate_adder_tree(1, "cmp42")
        with pytest.raises(SynthesisError):
            generate_adder_tree(8, "magic")
        with pytest.raises(SynthesisError):
            generate_adder_tree(8, "rca", fa_levels=1)

    def test_cmp42_uses_compressors_mixed_substitutes_fas(self):
        pure = _check_tree(64, "cmp42")
        mixed = _check_tree(64, "mixed", fa_levels=2)
        assert pure.compressors > 0
        assert mixed.compressors < pure.compressors
        assert mixed.full_adders > pure.full_adders

    def test_rca_has_no_compressors(self):
        stats = _check_tree(32, "rca")
        assert stats.compressors == 0
        assert stats.full_adders > 0


class TestFig4Orderings:
    """The Fig. 4 claims on our substrate."""

    @pytest.fixture(scope="class")
    def ppa(self):
        results = {}
        for key, (style, fa) in {
            "rca": ("rca", 0),
            "cmp42": ("cmp42", 0),
            "mixed2": ("mixed", 2),
            "mixed3": ("mixed", 3),
        }.items():
            mod, _ = generate_adder_tree(64, style, fa)
            flat = mod.flatten()
            results[key] = {
                "delay": minimum_period_ns(flat, LIB),
                "area": flat.total_area_um2(LIB),
                "power": estimate_power(
                    flat, LIB, GENERIC_40NM, 800.0
                ).total_mw,
            }
        return results

    def test_compressor_tree_smaller_than_rca(self, ppa):
        assert ppa["cmp42"]["area"] < ppa["rca"]["area"]

    def test_compressor_tree_lower_power_than_rca(self, ppa):
        assert ppa["cmp42"]["power"] < ppa["rca"]["power"]

    def test_mixed_faster_than_pure_compressor(self, ppa):
        assert ppa["mixed3"]["delay"] < ppa["cmp42"]["delay"]

    def test_mixed_pays_area_for_speed(self, ppa):
        assert ppa["mixed3"]["area"] > ppa["cmp42"]["area"]

    def test_carry_reorder_does_not_hurt(self):
        mod_r, _ = generate_adder_tree(64, "cmp42", carry_reorder=True)
        mod_n, _ = generate_adder_tree(64, "cmp42", carry_reorder=False)
        d_r = minimum_period_ns(mod_r.flatten(), LIB)
        d_n = minimum_period_ns(mod_n.flatten(), LIB)
        assert d_r <= d_n + 0.02
