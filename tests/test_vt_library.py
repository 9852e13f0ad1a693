"""Differential multi-Vt library suite: built vs Liberty-imported.

Extends the ``tests/test_vector_kernels.py`` pattern — prove a second
path (here: the library re-imported from its own Liberty export)
against the reference implementation on identical inputs, with exact
equality, not tolerances.  Because the SCL disk cache is content
addressed, field-identical cells hash to the *same* cache key, so the
imported backend resolves to the same characterized artifact — the
strongest possible "bit for bit" statement.

Also pins the scaling laws of the Vt/drive grid and the acceptance
criterion that the ``vt="auto"`` search reaches strictly lower leakage
than the single-Vt baseline.
"""

from __future__ import annotations

import itertools

import pytest

from repro.arch import MacroArchitecture
from repro.power.estimator import estimate_power
from repro.rtl.gen.addertree import generate_adder_tree
from repro.scl.cache import cell_fingerprint, scl_cache_key
from repro.search.algorithm import MSOSearcher
from repro.search.estimate import estimate_macro
from repro.sim.vecsim import _kernel_for
from repro.sta.analysis import minimum_period_ns
from repro.synth.vt import swap_vt
from repro.tech.liberty import export_liberty, library_from_liberty
from repro.tech.stdcells import (
    DRIVE_LADDER,
    VT_FLAVORS,
    VT_ORDER,
    default_library,
    parse_variant_name,
    single_vt_library,
    variant_name,
)


@pytest.fixture(scope="module")
def imported(process):
    """The default library after one Liberty export/import cycle."""
    return library_from_liberty(export_liberty(default_library(), process))


def _flat_tree(n_inputs: int):
    module, _ = generate_adder_tree(n_inputs)
    return module.flatten()


class TestImportedLibraryIdentity:
    def test_same_cell_set(self, library, imported):
        assert set(imported.names) == set(library.names)

    def test_every_variant_field_identical(self, library, imported):
        """area, caps, arcs, leakage, energy, geometry, (vt, drive) and
        the truth table — byte-identical for all 279 cells."""
        for cell in library:
            assert cell_fingerprint(imported.cell(cell.name)) == (
                cell_fingerprint(cell)
            ), f"cell {cell.name} drifted across the Liberty round trip"

    def test_same_truth_table_and_sim_kernel(self, library, imported):
        """The Liberty ``function`` text is the logic: every imported
        cell has the built-in cell's truth table and simulates on the
        same hand-written kernel."""
        for cell in library:
            twin = imported.cell(cell.name)
            assert twin.truth_table == cell.truth_table, cell.name
            if cell.truth_table is not None:
                assert _kernel_for(twin) is _kernel_for(cell), cell.name

    def test_scl_cache_key_identical(self, library, imported, process):
        """Field-identical cells hash to the same SCL artifact: the
        imported backend characterizes to the same library bit for bit."""
        assert scl_cache_key(imported, process) == (
            scl_cache_key(library, process)
        )

    def test_sta_identical_per_flavor(self, library, imported):
        """Netlist STA under the imported library matches exactly, at
        every flavor the swap pass can produce."""
        for vt in VT_ORDER:
            flat = _flat_tree(8)
            swap_vt(flat, library, vt)
            assert minimum_period_ns(flat, imported) == (
                minimum_period_ns(flat, library)
            ), f"minimum period drifted at vt={vt}"

    def test_power_identical(self, library, imported, process):
        flat = _flat_tree(8)
        built = estimate_power(flat, library, process, frequency_mhz=400.0)
        twin = estimate_power(flat, imported, process, frequency_mhz=400.0)
        assert twin.total_mw == built.total_mw
        assert twin.leakage_mw == built.leakage_mw


class TestScalingLaws:
    def test_leakage_and_delay_orderings(self, library):
        """At every populated (base, drive) grid point: delay strictly
        increases and leakage strictly decreases toward hvt."""
        grid = {}
        for cell in library:
            parsed = parse_variant_name(cell.name)
            if parsed is not None:
                grid.setdefault((parsed[0], parsed[2]), {})[parsed[1]] = cell
        checked = 0
        for (base, drive), flavors in grid.items():
            present = [vt for vt in VT_ORDER if vt in flavors]
            for slow_vt, fast_vt in zip(present, present[1:]):
                slow, fast = flavors[slow_vt], flavors[fast_vt]
                assert slow.leakage_nw < fast.leakage_nw, (base, drive)
                if slow.arcs and fast.arcs:
                    assert max(a.d0_ns for a in slow.arcs) > (
                        max(a.d0_ns for a in fast.arcs)
                    ), (base, drive)
                checked += 1
        assert checked > 100

    def test_drive_ladder_tops_out_at_x12(self, library):
        drives = sorted(
            {
                parse_variant_name(c.name)[2]
                for c in library
                if parse_variant_name(c.name) is not None
            }
        )
        assert max(drives) == 12
        assert tuple(DRIVE_LADDER) == (1, 2, 4, 6, 8, 12)
        # The whole ladder exists for the core families.
        for base, drive in itertools.product(("INV", "NAND2"), DRIVE_LADDER):
            assert variant_name(base, "svt", drive) in library
            assert variant_name(base, "hvt", drive) in library

    def test_area_and_cap_scale_with_drive(self, library):
        for a, b in zip(DRIVE_LADDER, DRIVE_LADDER[1:]):
            small = library.cell(variant_name("INV", "svt", a))
            big = library.cell(variant_name("INV", "svt", b))
            assert big.area_um2 > small.area_um2
            assert big.input_caps_ff["A"] > small.input_caps_ff["A"]
            # wider devices drive harder
            assert big.arcs[0].r_kohm < small.arcs[0].r_kohm

    def test_single_vt_view_is_svt_only(self):
        single = single_vt_library()
        full = default_library()
        assert len(single) < len(full)
        for cell in single:
            assert cell.vt == "svt", cell.name


class TestEstimatorVtPricing:
    def _estimate(self, small_spec, scl, vt):
        return estimate_macro(
            small_spec, MacroArchitecture(vt=vt), scl
        )

    def test_delay_ordering(self, small_spec, scl):
        crit = {
            vt: self._estimate(small_spec, scl, vt).critical_path_ns
            for vt in VT_FLAVORS
        }
        assert crit["ulvt"] < crit["lvt"] < crit["svt"] < crit["hvt"]

    def test_leakage_ordering(self, small_spec, scl):
        leak = {
            vt: self._estimate(small_spec, scl, vt).leakage_mw
            for vt in VT_FLAVORS
        }
        assert leak["hvt"] < leak["svt"] < leak["lvt"] < leak["ulvt"]

    def test_svt_is_the_identity_flavor(self, small_spec, scl):
        base = estimate_macro(small_spec, MacroArchitecture(), scl)
        svt = self._estimate(small_spec, scl, "svt")
        assert svt.critical_path_ns == base.critical_path_ns
        assert svt.leakage_mw == base.leakage_mw


class TestVtAutoSearch:
    def test_auto_reaches_strictly_lower_leakage(self, small_spec, scl):
        """The acceptance criterion: vt=auto must find a corner of the
        frontier with strictly lower leakage than any single-Vt
        baseline point."""
        baseline = MSOSearcher(scl=scl).search(small_spec)
        auto = MSOSearcher(scl=scl, vt="auto").search(small_spec)
        assert baseline.frontier and auto.frontier
        base_leak = min(e.leakage_mw for e in baseline.frontier)
        auto_leak = min(e.leakage_mw for e in auto.frontier)
        assert auto_leak < base_leak
        # ... and the low-leakage points still meet timing.
        best = min(auto.frontier, key=lambda e: e.leakage_mw)
        assert best.met

    def test_fixed_flavor_pins_every_candidate(self, small_spec, scl):
        result = MSOSearcher(scl=scl, vt="hvt").search(small_spec)
        assert result.frontier
        for est in result.candidates:
            assert est.arch.vt == "hvt"

    def test_bad_flavor_rejected(self, scl):
        from repro.errors import SearchError

        with pytest.raises(SearchError, match="vt must be"):
            MSOSearcher(scl=scl, vt="fast")
