"""Extension features: hybrid ReRAM cells, simultaneous MAC + weight
update, and the command-line interface."""

import numpy as np
import pytest

from repro.arch import MEMCELLS, MacroArchitecture
from repro.cli import main as cli_main
from repro.errors import SimulationError
from repro.sim.functional import DCIMMacroModel
from repro.spec import INT4, MacroSpec


class TestHybridReRAM:
    def test_cell_registered_everywhere(self, library, scl):
        assert "RRAM_HYB" in MEMCELLS
        cell = library.cell("RRAM_HYB")
        assert cell.is_memory
        rec = scl.lookup("memcell", "RRAM_HYB", 1)
        assert rec.area_um2 == pytest.approx(cell.area_um2)

    def test_rram_trades(self, library):
        """Papers [11]-[13]: denser and non-volatile (near-zero leak),
        but the ReRAM read through the SRAM assist is slower/costlier."""
        rram = library.cell("RRAM_HYB")
        sram = library.cell("DCIM6T")
        assert rram.area_um2 < sram.area_um2
        assert rram.leakage_nw < 0.1 * sram.leakage_nw
        assert rram.arcs[0].d0_ns > sram.arcs[0].d0_ns
        assert (
            rram.internal_energy_fj["RD"] > sram.internal_energy_fj["RD"]
        )

    def test_rram_macro_builds_and_places(self, library):
        from repro.layout.drc import run_drc
        from repro.layout.sdp import place_macro
        from repro.rtl.gen.macro import generate_macro_with_array

        spec = MacroSpec(
            height=8, width=8, mcr=2,
            input_formats=(INT4,), weight_formats=(INT4,),
        )
        mod, _ = generate_macro_with_array(
            spec, MacroArchitecture(memcell="RRAM_HYB")
        )
        flat = mod.flatten()
        flat.validate(library)
        placement = place_macro(flat, library)
        assert run_drc(placement).clean

    def test_rram_estimate_cuts_leakage(self, scl):
        from repro.search.estimate import estimate_macro

        spec = MacroSpec(height=64, width=64, mcr=4)
        sram = estimate_macro(spec, MacroArchitecture(), scl)
        rram = estimate_macro(
            spec, MacroArchitecture(memcell="RRAM_HYB"), scl
        )
        assert rram.leakage_mw < sram.leakage_mw


class TestSimultaneousUpdate:
    def _model(self):
        spec = MacroSpec(
            height=8, width=8, mcr=2,
            input_formats=(INT4,), weight_formats=(INT4,),
        )
        m = DCIMMacroModel(spec)
        rng = np.random.default_rng(0)
        m.set_weights_int(0, rng.integers(-8, 8, size=(8, 2)), INT4)
        m.set_weights_int(1, rng.integers(-8, 8, size=(8, 2)), INT4)
        return m

    def test_inactive_bank_writes_do_not_disturb(self):
        m = self._model()
        x = [3, -2, 7, 1, -8, 4, 0, 5]
        clean = m.mac_ideal(x, bank=0)
        updates = {
            1: (1, 0, [1] * 8),
            2: (1, 3, [0, 1] * 4),
            3: (1, 7, [1, 0] * 4),
        }
        got = m.mac_with_updates(x, bank=0, updates=updates)
        assert got == clean
        # and the writes actually landed in bank 1
        assert m.weight_bits(1)[0].tolist() == [1] * 8

    def test_active_bank_write_corrupts_faithfully(self):
        m = self._model()
        x = [1] * 8
        clean = m.mac_ideal(x, bank=0)
        got = m.mac_with_updates(
            x, bank=0, updates={1: (0, 0, [1] * 8)}
        )
        # mid-word write to the active bank generally changes the result
        after = m.mac_ideal(x, bank=0)
        assert got != clean or clean == after

    def test_row_write_validation(self):
        m = self._model()
        with pytest.raises(SimulationError):
            m.write_row(0, 99, [0] * 8)
        with pytest.raises(SimulationError):
            m.write_row(0, 0, [0] * 3)
        with pytest.raises(SimulationError):
            m.write_row(0, 0, [2] * 8)


class TestCLI:
    def test_search_command(self, capsys):
        rc = cli_main(
            [
                "search",
                "--height", "32", "--width", "32",
                "--formats", "INT4",
                "--frequency", "300",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Pareto frontier" in out

    def test_search_infeasible_exit_code(self, capsys):
        rc = cli_main(
            [
                "search",
                "--height", "256", "--width", "64",
                "--formats", "INT8",
                "--frequency", "5000",
            ]
        )
        assert rc == 1

    def test_compile_no_implement(self, capsys):
        rc = cli_main(
            [
                "compile",
                "--height", "32", "--width", "32",
                "--formats", "INT4",
                "--frequency", "400",
                "--ppa", "energy",
                "--no-implement",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "selected:" in out

    def test_compile_writes_artifacts(self, tmp_path, capsys):
        v = tmp_path / "m.v"
        g = tmp_path / "m.gds.json"
        rc = cli_main(
            [
                "compile",
                "--height", "16", "--width", "16",
                "--formats", "INT4",
                "--frequency", "400",
                "--verilog", str(v),
                "--gds", str(g),
            ]
        )
        assert rc == 0
        assert v.read_text().startswith("module")
        assert '"record": "HEADER"' in g.read_text()

    def test_error_path(self, capsys):
        rc = cli_main(
            ["search", "--height", "48", "--width", "32"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err
