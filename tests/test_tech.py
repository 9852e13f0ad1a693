"""Technology substrate: process scaling, standard cells,
characterization, Liberty views."""

import bisect
import math

import pytest

from repro.errors import LibraryError, SpecificationError
from repro.tech.characterization import (
    NLDMTable,
    arc_delay_ns,
    arc_slew_ns,
    characterize_cell,
    characterize_library,
)
from repro.tech.liberty import parse_liberty_cells, write_liberty
from repro.tech.process import CORNERS, GENERIC_40NM, Process
from repro.tech.stdcells import TimingArc, default_library


def _arc(cell, input_pin, output_pin):
    """The cell's one timing arc from ``input_pin`` to ``output_pin``."""
    (arc,) = [
        a for a in cell.arcs
        if (a.input_pin, a.output_pin) == (input_pin, output_pin)
    ]
    return arc


def _bracket(axis, x):
    """Indices and interpolation weight for ``x`` on ``axis``, clamped."""
    if x <= axis[0]:
        return 0, 0, 0.0
    if x >= axis[-1]:
        return len(axis) - 1, len(axis) - 1, 0.0
    hi = bisect.bisect_right(axis, x)
    lo = hi - 1
    return lo, hi, (x - axis[lo]) / (axis[hi] - axis[lo])


def _lookup(table, slew_ns, load_ff):
    """Read an NLDM table as a Liberty consumer does: bilinear
    interpolation, clamped outside the axes."""
    i0, i1, ti = _bracket(table.slews_ns, slew_ns)
    j0, j1, tj = _bracket(table.loads_ff, load_ff)
    v = table.values
    top = v[i0][j0] + (v[i0][j1] - v[i0][j0]) * tj
    bot = v[i1][j0] + (v[i1][j1] - v[i1][j0]) * tj
    return top + (bot - top) * ti


def _delay_ns(characterized, input_pin, output_pin, slew_ns, load_ff):
    """Delay of one characterized arc, read from its delay table."""
    (ca,) = [
        ca for ca in characterized.arcs
        if (ca.arc.input_pin, ca.arc.output_pin) == (input_pin, output_pin)
    ]
    return _lookup(ca.delay_table, slew_ns, load_ff)


class TestProcess:
    def test_delay_scale_identity_at_nominal(self):
        p = GENERIC_40NM
        assert p.delay_scale(p.vdd_nominal) == pytest.approx(1.0)

    def test_delay_scale_monotone_decreasing_in_vdd(self):
        p = GENERIC_40NM
        scales = [p.delay_scale(v) for v in (0.7, 0.8, 0.9, 1.0, 1.1, 1.2)]
        assert all(a > b for a, b in zip(scales, scales[1:]))

    def test_shmoo_endpoint_ratio(self):
        """The calibration target: fmax(1.2V)/fmax(0.7V) ~ 3.7 (paper:
        1.1 GHz vs 300 MHz)."""
        p = GENERIC_40NM
        ratio = p.delay_scale(0.7) / p.delay_scale(1.2)
        assert 3.0 < ratio < 4.5

    def test_energy_scale_quadratic(self):
        p = GENERIC_40NM
        assert p.energy_scale(1.8 * p.vdd_nominal / 2) == pytest.approx(
            0.81, rel=1e-6
        )

    def test_out_of_range_vdd_rejected(self):
        with pytest.raises(SpecificationError):
            GENERIC_40NM.delay_scale(0.2)

    def test_max_frequency(self):
        p = GENERIC_40NM
        f = p.max_frequency_mhz(1.0, p.vdd_nominal)
        assert f == pytest.approx(1000.0)
        assert p.max_frequency_mhz(1.0, 1.2) > f

    def test_corners_exist(self):
        assert CORNERS["SS"].delay_factor > 1.0 > CORNERS["FF"].delay_factor

    def test_invalid_process_rejected(self):
        with pytest.raises(SpecificationError):
            Process(vth=0.7, vdd_min=0.6)


class TestStdCells:
    def test_library_has_core_cells(self, library):
        for name in (
            "INV_X1",
            "NAND2_X1",
            "XOR2_X1",
            "FA_X1",
            "HA_X1",
            "CMP42_X1",
            "DFF_X1",
            "TGMUX2_X1",
            "PGMUX2_X1",
            "OAI22_X1",
            "DCIM6T",
            "SRAM6T",
        ):
            assert name in library

    def test_unknown_cell_raises(self, library):
        with pytest.raises(LibraryError):
            library.cell("NAND9_X9")

    def test_compressor_trades(self, library):
        """The trade the mixed CSA exploits: one compressor is smaller
        and lower-energy than the two FAs it replaces, but slower."""
        fa = library.cell("FA_X1")
        cmp42 = library.cell("CMP42_X1")
        assert cmp42.area_um2 < 2 * fa.area_um2
        assert sum(cmp42.internal_energy_fj.values()) < 2 * sum(
            fa.internal_energy_fj.values()
        )
        assert (
            _arc(cmp42, "A", "S").d0_ns > _arc(fa, "A", "S").d0_ns
        ), "compressor sum path must be slower than a full adder's"

    def test_carry_faster_than_sum(self, library):
        """Fig. 4's reordering premise."""
        for cell_name, sum_pin, carry_pin in (
            ("FA_X1", "S", "CO"),
            ("CMP42_X1", "S", "CY"),
        ):
            cell = library.cell(cell_name)
            assert (
                cell.worst_arc_to(carry_pin).d0_ns
                < cell.worst_arc_to(sum_pin).d0_ns
            )

    def test_pg_mux_smaller_but_slower_than_tg(self, library):
        pg = library.cell("PGMUX2_X1")
        tg = library.cell("TGMUX2_X1")
        assert pg.area_um2 < tg.area_um2
        assert _arc(pg, "D0", "Y").d0_ns > _arc(tg, "D0", "Y").d0_ns

    def test_logic_functions(self, library):
        fa = library.cell("FA_X1")
        assert fa.evaluate({"A": 1, "B": 1, "CI": 1}) == {"S": 1, "CO": 1}
        assert fa.evaluate({"A": 1, "B": 0, "CI": 0}) == {"S": 1, "CO": 0}
        cmp42 = library.cell("CMP42_X1")
        for a in (0, 1):
            for b_ in (0, 1):
                for c in (0, 1):
                    for d in (0, 1):
                        for ci in (0, 1):
                            out = cmp42.evaluate(
                                {"A": a, "B": b_, "C": c, "D": d, "CI": ci}
                            )
                            total = (
                                out["S"]
                                + 2 * out["CY"]
                                + 2 * out["CO"]
                            )
                            assert total == a + b_ + c + d + ci

    def test_arcs_reference_real_pins(self, library):
        for cell in library:
            for arc in cell.arcs:
                assert arc.output_pin in cell.outputs
                if not cell.is_sequential:
                    assert arc.input_pin in cell.input_caps_ff

    def test_memory_cells_flagged(self, library):
        assert library.cell("DCIM6T").is_memory
        assert not library.cell("FA_X1").is_memory
        assert library.cell("SRAM6T").area_um2 < library.cell("DCIM6T").area_um2


class TestCharacterization:
    def test_delay_equation_monotone(self):
        arc = TimingArc("A", "Y", 0.02, 1.5)
        d1 = arc_delay_ns(arc, 0.01, 1.0)
        d2 = arc_delay_ns(arc, 0.01, 10.0)
        d3 = arc_delay_ns(arc, 0.10, 10.0)
        assert d1 < d2 < d3

    def test_nldm_bilinear_interpolation(self):
        table = NLDMTable(
            slews_ns=(0.0, 1.0),
            loads_ff=(0.0, 2.0),
            values=((0.0, 2.0), (1.0, 3.0)),
        )
        assert _lookup(table, 0.5, 1.0) == pytest.approx(1.5)
        assert _lookup(table, 0.0, 0.0) == pytest.approx(0.0)
        # Clamped extrapolation.
        assert _lookup(table, 5.0, 5.0) == pytest.approx(3.0)

    def test_nldm_rejects_bad_axes(self):
        with pytest.raises(LibraryError):
            NLDMTable((1.0, 0.5), (0.0,), ((0.0,), (0.0,)))

    def test_characterized_cell_matches_equation(self, library, process):
        cell = library.cell("NAND2_X1")
        cc = characterize_cell(cell, process)
        arc = _arc(cell, "A", "Y")
        for slew, load in ((0.01, 1.0), (0.04, 8.0)):
            assert _delay_ns(cc, "A", "Y", slew, load) == pytest.approx(
                arc_delay_ns(arc, slew, load), rel=1e-6
            )

    def test_voltage_corner_scales_delay(self, library, process):
        cell = library.cell("INV_X1")
        nom = characterize_cell(cell, process)
        low = characterize_cell(cell, process, vdd=0.7)
        d_nom = _delay_ns(nom, "A", "Y", 0.01, 2.0)
        d_low = _delay_ns(low, "A", "Y", 0.01, 2.0)
        assert d_low / d_nom == pytest.approx(
            process.delay_scale(0.7), rel=1e-6
        )


class TestViews:
    def test_liberty_roundtrip(self, library, process):
        cells = characterize_library(
            [library.cell("INV_X1"), library.cell("FA_X1")], process
        )
        text = write_liberty("repro40", cells, process.vdd_nominal)
        parsed = parse_liberty_cells(text).cells
        assert parsed["INV_X1"].area_um2 == pytest.approx(0.8)
        assert parsed["FA_X1"].input_caps_ff["CI"] == pytest.approx(1.2)

    def test_liberty_contains_tables(self, library, process):
        cells = characterize_library([library.cell("NAND2_X1")], process)
        text = write_liberty("x", cells, 0.9)
        assert "index_1" in text and "values" in text
        assert "cell_rise" in text
