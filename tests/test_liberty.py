"""Liberty (.lib) interchange: the lossless round-trip contract.

Property-style tests generate random cell libraries from named seeds —
every assertion message carries the seed, so a failure reproduces from
the log alone.  The core invariant is the fixed point

    export -> import -> export  ==  export

(byte-identical text), which holds because every float is emitted with
``repr`` and the importer reconstructs exactly the fields the exporter
consumed.  A hand-written golden fixture (``tests/data/golden.lib``)
covers the classic-Liberty idioms our writer never produces — comments,
postfix negation, table-only timing arcs — and is driven end-to-end
through STA, power estimation and gate-level evaluation.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from repro.errors import LibraryError
from repro.power.estimator import estimate_power
from repro.rtl.ir import NetlistBuilder
from repro.scl.cache import cell_fingerprint
from repro.sta.analysis import analyze, minimum_period_ns
from repro.tech.characterization import SLEW_SENSITIVITY
from repro.tech.liberty import (
    export_liberty,
    library_from_liberty,
    parse_liberty_cells,
    read_liberty_library,
)
from repro.tech.process import GENERIC_40NM
from repro.tech.stdcells import (
    Cell,
    StdCellLibrary,
    TimingArc,
    default_library,
)

BASE_SEED = 0x11B
GOLDEN = Path(__file__).parent / "data" / "golden.lib"


# ---------------------------------------------------------------------------
# Random library generation.
# ---------------------------------------------------------------------------

_VTS = ("svt", "hvt", "lvt", "ulvt")
_OPS = ("&", "|", "^")


def _random_expr(rng: random.Random, pins) -> str:
    expr = pins[0]
    for pin in pins[1:]:
        expr = f"({expr} {rng.choice(_OPS)} {pin})"
        if rng.random() < 0.3:
            expr = f"!{expr}"
    return expr


def _random_comb_cell(rng: random.Random, name: str) -> Cell:
    pins = tuple(f"I{k}" for k in range(rng.randint(1, 4)))
    fns = {"Y": _random_expr(rng, list(pins))}
    height = 1.8
    area = round(rng.uniform(0.5, 6.0), 4)
    return Cell(
        name=name,
        area_um2=area,
        input_caps_ff={p: round(rng.uniform(0.4, 3.0), 4) for p in pins},
        outputs=("Y",),
        arcs=tuple(
            TimingArc(p, "Y", rng.uniform(0.01, 0.08), rng.uniform(0.5, 4.0))
            for p in pins
        ),
        leakage_nw=rng.uniform(0.1, 30.0),
        internal_energy_fj={"Y": rng.uniform(0.2, 5.0)},
        width_um=area / height,
        height_um=height,
        tags=("gen", "logic") if rng.random() < 0.5 else (),
        vt=rng.choice(_VTS),
        drive=rng.choice((1, 2, 4, 8)),
        pin_functions=fns,
    )


def _random_dff_cell(rng: random.Random, name: str) -> Cell:
    height = 1.8
    area = round(rng.uniform(3.0, 9.0), 4)
    return Cell(
        name=name,
        area_um2=area,
        input_caps_ff={
            "CK": round(rng.uniform(0.5, 1.5), 4),
            "D": round(rng.uniform(0.5, 2.0), 4),
        },
        outputs=("Q",),
        arcs=(TimingArc("CK", "Q", rng.uniform(0.08, 0.2), rng.uniform(1.0, 3.0)),),
        leakage_nw=rng.uniform(1.0, 10.0),
        internal_energy_fj={"Q": rng.uniform(1.0, 8.0)},
        is_sequential=True,
        clk_pin="CK",
        clk_to_q_ns=rng.uniform(0.08, 0.2),
        setup_ns=rng.uniform(0.02, 0.08),
        hold_ns=rng.uniform(0.0, 0.03),
        width_um=area / height,
        height_um=height,
        vt=rng.choice(_VTS),
        drive=rng.choice((1, 2)),
    )


def _random_library(seed: int) -> StdCellLibrary:
    rng = random.Random(seed)
    cells = {}
    for i in range(rng.randint(3, 7)):
        cell = _random_comb_cell(rng, f"GEN{i}_X{rng.choice((1, 2, 4))}")
        cells[cell.name] = cell
    dff = _random_dff_cell(rng, "GENFF_X1")
    cells[dff.name] = dff
    return StdCellLibrary(cells)


def _fingerprints(library: StdCellLibrary) -> dict:
    return {c.name: cell_fingerprint(c) for c in library}


# ---------------------------------------------------------------------------
# Property-based round trips.
# ---------------------------------------------------------------------------


class TestRoundTripFixedPoint:
    @pytest.mark.parametrize("trial", range(6))
    def test_export_import_export_idempotent(self, trial):
        seed = BASE_SEED + 17 * trial
        library = _random_library(seed)
        first = export_liberty(library, GENERIC_40NM)
        imported = library_from_liberty(first)
        second = export_liberty(imported, GENERIC_40NM)
        assert first == second, f"export not a fixed point (seed={seed})"

    @pytest.mark.parametrize("trial", range(6))
    def test_import_reproduces_every_field(self, trial):
        seed = BASE_SEED + 31 * trial
        library = _random_library(seed)
        imported = library_from_liberty(export_liberty(library, GENERIC_40NM))
        assert set(imported.names) == set(library.names), f"seed={seed}"
        want = _fingerprints(library)
        got = _fingerprints(imported)
        for name in want:
            assert got[name] == want[name], (
                f"cell {name} changed across the round trip (seed={seed})"
            )

    @pytest.mark.parametrize("trial", range(4))
    def test_functions_survive(self, trial):
        seed = BASE_SEED + 53 * trial
        rng = random.Random(seed)
        library = _random_library(seed)
        imported = library_from_liberty(export_liberty(library, GENERIC_40NM))
        for cell in library:
            if cell.truth_table is None:
                continue
            twin = imported.cell(cell.name)
            for _ in range(8):
                pins = {p: rng.randint(0, 1) for p in cell.inputs}
                assert twin.evaluate(pins) == cell.evaluate(pins), (
                    f"{cell.name} function drifted on {pins} (seed={seed})"
                )

    def test_header_fields_round_trip(self):
        seed = BASE_SEED
        library = _random_library(seed)
        text = export_liberty(library, GENERIC_40NM, name="roundtrip")
        parsed = parse_liberty_cells(text)
        assert parsed.name == "roundtrip", f"seed={seed}"
        assert parsed.nom_voltage == GENERIC_40NM.vdd_nominal, f"seed={seed}"

    def test_read_from_file(self, tmp_path):
        seed = BASE_SEED + 7
        library = _random_library(seed)
        path = tmp_path / "lib.lib"
        path.write_text(export_liberty(library, GENERIC_40NM))
        imported = read_liberty_library(path)
        assert _fingerprints(imported) == _fingerprints(library), f"seed={seed}"


class TestDefaultLibraryRoundTrip:
    def test_full_library_fixed_point(self):
        library = default_library()
        first = export_liberty(library, GENERIC_40NM)
        imported = library_from_liberty(first)
        assert export_liberty(imported, GENERIC_40NM) == first
        assert _fingerprints(imported) == _fingerprints(library)

    def test_summary_view(self):
        library = default_library()
        summary = parse_liberty_cells(export_liberty(library, GENERIC_40NM)).cells
        assert set(summary) == set(library.names)
        inv = library.cell("INV_X1")
        assert summary["INV_X1"].area_um2 == inv.area_um2
        assert summary["INV_X1"].leakage_nw == inv.leakage_nw
        assert dict(summary["INV_X1"].input_caps_ff) == dict(inv.input_caps_ff)


class TestParserErrors:
    def test_unbalanced_braces(self):
        with pytest.raises(LibraryError, match="unbalanced"):
            parse_liberty_cells("library (x) { cell (A) {")

    def test_no_library_group(self):
        with pytest.raises(LibraryError, match="no library group"):
            parse_liberty_cells("cell (A) { }")

    def test_no_cells(self):
        with pytest.raises(LibraryError, match="no cells"):
            parse_liberty_cells("library (x) { }")

    def test_duplicate_cell(self):
        text = (
            "library (x) { cell (A) { area : 1.0; } "
            "cell (A) { area : 2.0; } }"
        )
        with pytest.raises(LibraryError, match="duplicate cell"):
            parse_liberty_cells(text)

    def test_bad_function_expression(self):
        text = (
            'library (x) { cell (A) { pin (Y) { direction : output; '
            'function : "(A & B"; } } }'
        )
        with pytest.raises(LibraryError):
            parse_liberty_cells(text)

    def test_function_naming_an_unknown_pin(self):
        """Refused when the cell is imported, naming the cell and the
        pin, not a bare ``KeyError`` when something first evaluates
        it."""
        text = (
            "library (x) { cell (BAD_X1) { "
            "pin (A) { direction : input; capacitance : 1.0; } "
            'pin (Y) { direction : output; function : "!(A & Z)"; } } }'
        )
        with pytest.raises(LibraryError, match=r"BAD_X1.*'Z'"):
            library_from_liberty(text)

    def test_output_without_function(self):
        """A combinational cell's logic covers every output pin."""
        text = (
            "library (x) { cell (HALF_X1) { "
            "pin (A) { direction : input; capacitance : 1.0; } "
            'pin (S) { direction : output; function : "!A"; } '
            "pin (CO) { direction : output; } } }"
        )
        with pytest.raises(LibraryError, match=r"HALF_X1.*CO"):
            library_from_liberty(text)

    def test_timing_without_related_pin(self):
        text = (
            "library (x) { cell (A) { pin (Y) { direction : output; "
            "timing () { intrinsic_rise : 0.1; } } } }"
        )
        with pytest.raises(LibraryError, match="related_pin"):
            parse_liberty_cells(text)


# ---------------------------------------------------------------------------
# Golden fixture: classic Liberty, end-to-end.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return read_liberty_library(GOLDEN)


class TestGoldenFixture:
    def test_cells_present(self, golden):
        assert set(golden.names) == {
            "GINV_X1", "GNAND2_X1", "GBUF_X2", "GDFF_X1",
        }

    def test_attributes(self, golden):
        inv = golden.cell("GINV_X1")
        assert inv.area_um2 == 1.2
        assert inv.leakage_nw == 0.8
        assert inv.vt == "svt"  # no threshold_voltage_group attribute
        nand = golden.cell("GNAND2_X1")
        assert nand.vt == "hvt"
        assert nand.drive == 1
        buf = golden.cell("GBUF_X2")
        assert buf.drive == 2

    def test_table_only_arc_refit(self, golden):
        """The GINV_X1 arc carries only an NLDM table; the linear model
        is recovered from its corners (constructed for d0=0.03, r=2.0,
        with SLEW_SENSITIVITY * slew baked into the first row)."""
        (arc,) = golden.cell("GINV_X1").arcs_to("Y")
        assert arc.input_pin == "A"
        assert arc.r_kohm == pytest.approx(2.0)
        assert arc.d0_ns == pytest.approx(
            0.037 - 2.0e-3 - SLEW_SENSITIVITY * 0.02
        )

    def test_postfix_negation_functions(self, golden):
        inv = golden.cell("GINV_X1")
        nand = golden.cell("GNAND2_X1")
        for a, b in itertools.product((0, 1), repeat=2):
            assert inv.evaluate({"A": a}) == {"Y": 1 - a}
            assert nand.evaluate({"A": a, "B": b}) == {"Y": 1 - (a & b)}

    def test_sequential_reconstruction(self, golden):
        dff = golden.cell("GDFF_X1")
        assert dff.is_sequential
        assert dff.clk_pin == "CK"
        assert dff.setup_ns == 0.05
        assert dff.hold_ns == 0.02
        # No repro_clk_to_q_ns extension: falls back to the CK->Q arc.
        assert dff.clk_to_q_ns == 0.12

    def test_golden_round_trips_through_export(self, golden):
        first = export_liberty(golden, GENERIC_40NM, name="golden40")
        imported = library_from_liberty(first)
        assert export_liberty(imported, GENERIC_40NM, name="golden40") == first

    def _pipeline(self):
        """DFF -> NAND2 -> INV -> BUF -> DFF, all golden cells."""
        b = NetlistBuilder("golden_pipe")
        d = b.inputs("d")[0]
        clk = b.inputs("clk")[0]
        q = b.outputs("q")[0]
        b.module.set_clocks([clk])
        s1 = b.net("s1")
        b.cell("GDFF_X1", CK=clk, D=d, Q=s1)
        n1 = b.net("n1")
        b.cell("GNAND2_X1", A=s1, B=s1, Y=n1)
        n2 = b.net("n2")
        b.cell("GINV_X1", A=n1, Y=n2)
        n3 = b.net("n3")
        b.cell("GBUF_X2", A=n2, Y=n3)
        b.cell("GDFF_X1", CK=clk, D=n3, Q=q)
        return b.finish()

    def test_sta_end_to_end(self, golden):
        m = self._pipeline()
        dff = golden.cell("GDFF_X1")
        period = minimum_period_ns(m, golden)
        assert period > dff.clk_to_q_ns + dff.setup_ns
        assert analyze(m, golden, period * 1.01).met
        assert not analyze(m, golden, period * 0.5).met

    def test_power_end_to_end(self, golden):
        m = self._pipeline()
        report = estimate_power(
            m, golden, GENERIC_40NM, frequency_mhz=400.0
        )
        assert report.total_mw > 0.0
