"""Vt-swap repair passes: mutation catching and recovery.

Mirrors the ``tests/test_verify.py`` style: injected faults — a Vt swap
that would change a cell's logic function, a stale leakage/timing
table — must be loudly rejected, never silently folded into the
netlist.  Property style tests draw netlist shapes from named seeds;
every assertion message carries the seed so a failure reproduces from
the log alone.  The Vt-grid ordering check, ``check_vt_library``, lives
here: the compile flow never calls it, and these tests keep the shipped
library's grid checked with it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.errors import LibraryError, SynthesisError
from repro.rtl.ir import NetlistBuilder
from repro.rtl.gen.addertree import generate_adder_tree
from repro.sta.analysis import instance_slacks, minimum_period_ns
from repro.synth.vt import recover_leakage, swap_vt
from repro.tech.stdcells import (
    DRIVE_LADDER,
    VT_ORDER,
    Cell,
    StdCellLibrary,
    default_library,
    parse_variant_name,
)

BASE_SEED = 0x5157


def _flat_tree(n_inputs: int):
    module, _ = generate_adder_tree(n_inputs)
    return module.flatten()


def _mutant_library(**replacements) -> StdCellLibrary:
    """A copy of the default library with named cells swapped out."""
    cells = {c.name: c for c in default_library()}
    cells.update(replacements)
    return StdCellLibrary(cells)


def check_vt_library(library: StdCellLibrary) -> int:
    """Validate the flavor orderings across the library's Vt grid.

    At every ``(base, drive)`` point where several flavors exist, delay
    must strictly increase and leakage strictly decrease from ulvt
    toward hvt (see :data:`repro.tech.stdcells.VT_ORDER`).  A violation
    means a stale or inconsistent characterization table — e.g. a
    leakage column scaled without re-deriving its neighbors — and
    raises :class:`LibraryError` naming the offending pair.  Returns
    the number of grid points checked.
    """
    grid: Dict[Tuple[str, int], Dict[str, Cell]] = {}
    for cell in library:
        parsed = parse_variant_name(cell.name)
        if parsed is None:
            continue
        grid.setdefault((parsed[0], parsed[2]), {})[parsed[1]] = cell

    def worst_d0(cell: Cell) -> float:
        return max((a.d0_ns for a in cell.arcs), default=0.0)

    checked = 0
    for (base, drive), flavors in sorted(grid.items()):
        present = [vt for vt in VT_ORDER if vt in flavors]
        if len(present) < 2:
            continue
        checked += 1
        for slow_vt, fast_vt in zip(present, present[1:]):
            slow = flavors[slow_vt]
            fast = flavors[fast_vt]
            if slow.arcs and fast.arcs and not worst_d0(slow) > worst_d0(fast):
                raise LibraryError(
                    f"stale timing table: {slow.name} (d0 "
                    f"{worst_d0(slow):.6g} ns) is not slower than "
                    f"{fast.name} (d0 {worst_d0(fast):.6g} ns)"
                )
            if not slow.leakage_nw < fast.leakage_nw:
                raise LibraryError(
                    f"stale leakage table: {slow.name} "
                    f"({slow.leakage_nw:.6g} nW) is not lower-leakage "
                    f"than {fast.name} ({fast.leakage_nw:.6g} nW)"
                )
    return checked


def _leakage_nw(module, library) -> float:
    return sum(
        library.cell(inst.cell_name).leakage_nw for inst in module.instances
    )


class TestSwapVt:
    @pytest.mark.parametrize("trial", range(3))
    def test_round_trip_restores_netlist(self, library, trial):
        seed = BASE_SEED + 11 * trial
        rng = np.random.default_rng(seed)
        flat = _flat_tree(int(rng.choice([8, 12, 16])))
        before = [inst.cell_name for inst in flat.instances]
        swapped = swap_vt(flat, library, "hvt")
        assert swapped > 0, f"no cells re-flavored (seed={seed})"
        for inst in flat.instances:
            parsed = parse_variant_name(inst.cell_name)
            if parsed is not None:
                assert parsed[1] == "hvt", (
                    f"{inst.name} kept {inst.cell_name} (seed={seed})"
                )
        assert swap_vt(flat, library, "svt") == swapped, f"seed={seed}"
        after = [inst.cell_name for inst in flat.instances]
        assert after == before, f"round trip not identity (seed={seed})"

    def test_hvt_slows_and_saves_leakage(self, library):
        flat = _flat_tree(8)
        period = minimum_period_ns(flat, library)
        leak = _leakage_nw(flat, library)
        swap_vt(flat, library, "hvt")
        assert minimum_period_ns(flat, library) > period
        assert _leakage_nw(flat, library) < leak

    def test_unknown_flavor_rejected(self, library):
        flat = _flat_tree(8)
        with pytest.raises(LibraryError, match="unknown vt flavor"):
            swap_vt(flat, library, "xvt")

    def test_function_breaking_swap_rejected(self):
        """Mutation: a library whose hvt NAND2 actually computes NOR2
        must be rejected at swap time, not miscompiled."""
        lib = default_library()
        nor = lib.cell("NOR2_X1")
        broken = dataclasses.replace(
            lib.cell("NAND2_HVT_X1"),
            pin_functions=dict(nor.pin_functions),
        )
        mutant = _mutant_library(NAND2_HVT_X1=broken)

        b = NetlistBuilder("one_nand")
        a, c = b.inputs("a")[0], b.inputs("c")[0]
        y = b.outputs("y")[0]
        b.cell("NAND2_X1", A=a, B=c, Y=y)
        m = b.finish()
        before = [inst.cell_name for inst in m.instances]
        with pytest.raises(
            SynthesisError, match="changes the cell's logic function"
        ):
            swap_vt(m, mutant, "hvt")
        assert [i.cell_name for i in m.instances] == before


class TestRecoverLeakage:
    @pytest.mark.parametrize("trial", range(3))
    def test_demotes_slack_without_breaking_timing(self, library, trial):
        seed = BASE_SEED + 101 * trial
        rng = np.random.default_rng(seed)
        flat = _flat_tree(int(rng.choice([8, 12, 16])))
        period = minimum_period_ns(flat, library)
        clock = period * float(rng.uniform(1.5, 2.5))
        leak = _leakage_nw(flat, library)
        demoted = recover_leakage(flat, library, clock_period_ns=clock)
        assert demoted > 0, f"nothing recovered (seed={seed})"
        assert _leakage_nw(flat, library) < leak, f"seed={seed}"
        assert minimum_period_ns(flat, library) <= clock, (
            f"recovery broke the clock budget (seed={seed})"
        )

    def test_no_slack_no_swaps(self, library):
        flat = _flat_tree(8)
        period = minimum_period_ns(flat, library)
        # margin eats the entire budget: every candidate is filtered.
        assert recover_leakage(
            flat, library, clock_period_ns=period, margin_ns=period
        ) == 0

    def test_unknown_target_flavor_rejected(self, library):
        flat = _flat_tree(8)
        with pytest.raises(LibraryError, match="unknown vt flavor"):
            recover_leakage(
                flat, library, clock_period_ns=10.0, target_vt="none"
            )


class TestSlacks:
    def test_min_slack_matches_wns(self, library):
        flat = _flat_tree(12)
        clock = 4.0
        period = minimum_period_ns(flat, library)
        inst = instance_slacks(flat, library, clock)
        finite = [s for s in inst.values() if s != float("inf")]
        assert min(finite) == pytest.approx(clock - period)


class TestCheckVtLibrary:
    def test_default_library_is_consistent(self, library):
        # One grid point per laddered (base, drive) pair with >= 2
        # flavors present; the default grid holds 68 of them.
        assert check_vt_library(library) == 68

    def test_vt_order_covers_all_flavors(self):
        assert set(VT_ORDER) == {"hvt", "svt", "lvt", "ulvt"}
        assert len(DRIVE_LADDER) == 6

    def test_stale_leakage_table_rejected(self):
        """Mutation: an hvt cell whose leakage was never re-derived
        (equal to its svt sibling) must fail the ordering check."""
        lib = default_library()
        stale = dataclasses.replace(
            lib.cell("INV_HVT_X1"),
            leakage_nw=lib.cell("INV_X1").leakage_nw,
        )
        with pytest.raises(LibraryError, match="stale leakage table"):
            check_vt_library(_mutant_library(INV_HVT_X1=stale))

    def test_stale_timing_table_rejected(self):
        """Mutation: an hvt cell that kept its svt delays (delay not
        re-scaled) must fail the ordering check."""
        lib = default_library()
        stale = dataclasses.replace(
            lib.cell("INV_HVT_X1"),
            arcs=lib.cell("INV_X1").arcs,
        )
        with pytest.raises(LibraryError, match="stale timing table"):
            check_vt_library(_mutant_library(INV_HVT_X1=stale))
