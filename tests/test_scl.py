"""Subcircuit library: LUT mechanics and characterized orderings."""

import pytest

from repro.errors import LibraryError
from repro.scl.builder import tree_variant
from repro.scl.lut import PPARecord, PPATable, interpolate_records


class TestPPATable:
    def _table(self):
        t = PPATable("demo")
        t.add("v", 8, PPARecord(0.4, 1.0, 100.0, 0.001, cells=10))
        t.add("v", 32, PPARecord(0.8, 4.0, 400.0, 0.004, cells=40))
        return t

    def test_exact_lookup(self):
        t = self._table()
        assert t.lookup("v", 8).delay_ns == pytest.approx(0.4)

    def test_interpolation_midpoint(self):
        t = self._table()
        mid = t.lookup("v", 20)
        assert mid.delay_ns == pytest.approx(0.6)
        assert mid.energy_pj == pytest.approx(2.5)
        assert mid.area_um2 == pytest.approx(250.0)

    def test_extrapolation_above_grid(self):
        t = self._table()
        big = t.lookup("v", 64)
        assert big.energy_pj > 4.0
        assert big.delay_ns > 0.8

    def test_unknown_variant_raises(self):
        t = self._table()
        with pytest.raises(LibraryError):
            t.lookup("nope", 8)

    def test_duplicate_rejected(self):
        t = self._table()
        with pytest.raises(LibraryError):
            t.add("v", 8, PPARecord(0.1, 0.1, 1.0, 0.0))

    def test_single_point_scales_linearly(self):
        t = PPATable("one")
        t.add("v", 10, PPARecord(0.5, 2.0, 50.0, 0.002, cells=5))
        r = t.lookup("v", 20)
        assert r.energy_pj == pytest.approx(4.0)
        assert r.delay_ns == pytest.approx(0.5)  # delay is intensive

    def test_interpolate_records_stage_delays(self):
        a = PPARecord(1.0, 1.0, 1.0, 0.0, stage_delays_ns=(0.2, 0.4))
        b = PPARecord(2.0, 2.0, 2.0, 0.0, stage_delays_ns=(0.4, 0.8))
        mid = interpolate_records(a, b, 0.5)
        assert mid.stage_delays_ns == pytest.approx((0.3, 0.6))


class TestVariantNaming:
    def test_mixed_fa0_degenerates_to_cmp42(self):
        assert tree_variant("mixed", 0, True) == "cmp42-fa0-r"
        assert tree_variant("mixed", 2, False) == "mixed-fa2-n"


class TestBuiltLibrary:
    """Orderings the searcher depends on, measured from the real SCL."""

    def test_entry_counts(self, scl):
        assert scl.entry_count() > 150
        assert len(scl.table("adder_tree")) > 0

    def test_tree_delay_grows_with_inputs(self, scl):
        d = [
            scl.lookup("adder_tree", "cmp42-fa0-r", n).delay_ns
            for n in (8, 32, 128)
        ]
        assert d[0] < d[1] < d[2]

    def test_tree_energy_roughly_linear(self, scl):
        e32 = scl.lookup("adder_tree", "cmp42-fa0-r", 32).energy_pj
        e128 = scl.lookup("adder_tree", "cmp42-fa0-r", 128).energy_pj
        assert 2.0 < e128 / e32 < 8.0

    def test_mixed_faster_than_cmp42_at_64(self, scl):
        mixed = scl.lookup("adder_tree", "mixed-fa3-r", 64)
        pure = scl.lookup("adder_tree", "cmp42-fa0-r", 64)
        assert mixed.delay_ns < pure.delay_ns
        assert mixed.area_um2 >= pure.area_um2

    def test_rca_worst_area_energy(self, scl):
        rca = scl.lookup("adder_tree", "rca-fa0-r", 64)
        pure = scl.lookup("adder_tree", "cmp42-fa0-r", 64)
        assert rca.area_um2 > pure.area_um2
        assert rca.energy_pj > pure.energy_pj

    def test_csel_ofu_faster_bigger(self, scl):
        rpl = scl.lookup("ofu", "c8-rpl", 16)
        cs = scl.lookup("ofu", "c8-csel", 16)
        assert cs.delay_ns < rpl.delay_ns
        assert cs.area_um2 > rpl.area_um2
        assert all(
            c <= r + 1e-9
            for c, r in zip(cs.stage_delays_ns, rpl.stage_delays_ns)
        )

    def test_pg_mux_smallest(self, scl):
        pg = scl.lookup("mult_mux", "pg_1t", 2)
        tg = scl.lookup("mult_mux", "tg_nor", 2)
        assert pg.area_um2 < tg.area_um2
        assert pg.delay_ns > tg.delay_ns

    def test_driver_strength_trades_energy_for_delay(self, scl):
        d2 = scl.lookup("wl_driver", "drv2", 64)
        d8 = scl.lookup("wl_driver", "drv8", 64)
        assert d8.delay_ns < d2.delay_ns
        assert d8.energy_pj > d2.energy_pj

    def test_alignment_grows_with_lanes_and_format(self, scl):
        a8 = scl.lookup("alignment", "FP8", 8)
        a64 = scl.lookup("alignment", "FP8", 64)
        assert a64.area_um2 > 4 * a8.area_um2
        bf = scl.lookup("alignment", "BF16", 64)
        assert bf.area_um2 > a64.area_um2

    def test_memcell_records(self, scl):
        c6 = scl.lookup("memcell", "DCIM6T", 1)
        c8 = scl.lookup("memcell", "DCIM8T", 1)
        c12 = scl.lookup("memcell", "DCIM12T", 1)
        assert c6.area_um2 < c8.area_um2 < c12.area_um2

    def test_sealed_library(self, scl):
        assert scl.sealed
