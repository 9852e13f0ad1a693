"""One NetView walk per implement attempt, and views that equal a walk.

The compiled view of a flat netlist is built by walking it once
(:class:`~repro.rtl.netview.NetView`'s constructor); everything that
edits the netlist in place afterwards keeps a valid view without a
second walk.  ``optimize`` installs the view its own tables describe,
and ref-only edits (:meth:`~repro.rtl.ir.Module.set_refs`: Vt swaps,
leakage recovery and its reverts) re-resolve the cells on the same net
ids and pin rows.  These tests count the walks (the ``walks`` fixture
wraps the constructor, as the end-to-end benchmark does) and check
that every view obtained without a walk equals a fresh walk field by
field, so STA and power read the same tables either way.
``test_golden_implement.py`` counts the walks of real compiles and
checks their final views the same way.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.power.estimator import estimate_power
from repro.rtl.gen.addertree import generate_adder_tree
from repro.rtl.ir import NetlistBuilder
from repro.rtl.netview import NetView, net_view
from repro.sta.analysis import analyze, minimum_period_ns
from repro.synth.optimize import optimize
from repro.synth.vt import recover_leakage, swap_vt
from repro.tech.process import GENERIC_40NM
from repro.tech.stdcells import StdCellLibrary, default_library


def assert_same_view(view: NetView, fresh: NetView) -> None:
    """Field-by-field equality; group order sets STA tie-breaks."""
    assert view.revision == fresh.revision
    assert view.net_names == fresh.net_names
    assert view.net_id == fresh.net_id
    assert len(view.cells) == len(fresh.cells)
    assert all(a is b for a, b in zip(view.cells, fresh.cells))
    assert view.in_ids == fresh.in_ids
    assert view.out_ids == fresh.out_ids
    assert [g.cell.name for g in view.groups] == [g.cell.name for g in fresh.groups]
    for got, want in zip(view.groups, fresh.groups):
        assert got.cell is want.cell
        for table in ("inst_idx", "in_ids", "out_ids"):
            a, b = getattr(got, table), getattr(want, table)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
    # Rows hold the net_id dict's int objects, as a walk's rows do.
    shared = {id(i) for i in view.net_id.values()}
    for rows in (view.in_ids, view.out_ids):
        assert all(i == -1 or id(i) in shared for row in rows for i in row)


def assert_matches_walk(module, library) -> NetView:
    view = net_view(module, library)
    assert_same_view(view, NetView(module, library))
    return view


def assert_same_analyses(module, library, clock_ns: float) -> None:
    """STA and power on the cached view equal a fresh walk's."""

    def run():
        return (
            analyze(module, library, clock_ns),
            estimate_power(module, library, GENERIC_40NM, 1e3 / clock_ns),
        )

    cached = run()
    module._net_view_cache.clear()
    assert run() == cached


def _swept_fanout_module():
    """The dead sweep and fanout buffering both fire: TIE cells feed a
    live gate, the first XOR is dead (so group first-appearance order
    changes), a net drives 300 sinks (net ids pass the cached small
    ints), a NAND leaves a pin open and a register keeps its cone
    live."""
    b = NetlistBuilder("ofd")
    a, clk = b.inputs("a")[0], b.inputs("clk")[0]
    outs = b.outputs("y", 300)
    q = b.outputs("q")[0]
    b.module.set_clocks([clk])
    b.xor2(a, a)  # dead
    one = b.or2(b.const0(), b.const1())
    useful = b.and2(a, one)
    for y in outs:
        b.cell("BUF_X2", A=useful, Y=y)
    open_pin = b.net("open")
    b.cell("NAND2_X1", A=useful, Y=open_pin)
    x = b.xor2(open_pin, useful)
    b.cell("DFF_X1", D=x, CK=clk, Q=q)
    return b.finish()


def test_optimized_view_equals_a_walk(library, walks):
    out, stats = optimize(_swept_fanout_module(), library)
    assert stats["dead_gates_removed"] and stats["fanout_buffers_added"]
    assert walks[0] == 1
    assert_matches_walk(out, library)
    assert_same_analyses(out, library, 2.0)


def test_optimize_with_vt_swap_walks_once(library, walks):
    out, stats = optimize(_swept_fanout_module(), library, vt="hvt")
    assert stats["vt_swapped"] and walks[0] == 1
    assert_matches_walk(out, library)


def _flat_tree(n_inputs: int):
    module, _ = generate_adder_tree(n_inputs)
    return module.flatten()


def test_ref_edits_reuse_the_view(library, walks):
    flat = _flat_tree(16)
    period = minimum_period_ns(flat, library)
    assert swap_vt(flat, library, "hvt") > 0
    assert swap_vt(flat, library, "svt") > 0
    assert recover_leakage(flat, library, clock_period_ns=2.0 * period) > 0
    assert walks[0] == 1
    assert_matches_walk(flat, library)
    assert_same_analyses(flat, library, 2.0 * period)


def test_recovery_revert_reuses_the_view(library, walks):
    """Demoting all eight inverters overshoots a clock 5 % above the
    minimum period, so the bisection reverts swaps until it fits."""
    b = NetlistBuilder("chain")
    node, y = b.inputs("a")[0], b.outputs("y")[0]
    for _ in range(7):
        nxt = b.net("n")
        b.cell("INV_X2", A=node, Y=nxt)
        node = nxt
    b.cell("INV_X2", A=node, Y=y)
    chain = b.finish()

    wire = np.full(len(chain.nets), 8.0)
    clock = 1.05 * minimum_period_ns(chain, library, wire_load=wire)
    kept = recover_leakage(chain, library, clock_period_ns=clock, wire_load=wire)
    assert 0 < kept < len(chain.instances)
    assert sum(library.cell(i.cell_name).vt == "hvt" for i in chain.instances) == kept
    assert walks[0] == 1
    assert_matches_walk(chain, library)
    assert minimum_period_ns(chain, library, wire_load=wire) <= clock


@pytest.mark.parametrize("ref_edit_first", [True, False])
def test_connectivity_edit_beside_ref_edit_walks(library, walks, ref_edit_first):
    flat = _flat_tree(8)
    net_view(flat, library)
    if ref_edit_first:
        swap_vt(flat, library, "hvt")
        flat.add_instance("extra_buf", "BUF_X2", {"A": flat.input_ports[0], "Y": "extra"})
    else:
        flat.add_net("spare")  # same instances, one more net
        swap_vt(flat, library, "hvt")
    assert_matches_walk(flat, library)
    assert walks[0] == 3  # first view, the edited module, the oracle


def test_swap_to_other_pin_order_walks(walks):
    base = default_library()
    nand = base.cell("NAND2_X1")
    swapped = dataclasses.replace(
        nand, name="NAND2_X1_BA",
        input_caps_ff=dict(reversed(list(nand.input_caps_ff.items()))),
    )
    library = StdCellLibrary({**{c.name: c for c in base}, swapped.name: swapped})
    b = NetlistBuilder("pins")
    a, c = b.inputs("a")[0], b.inputs("c")[0]
    y = b.outputs("y")[0]
    b.cell("NAND2_X1", A=a, B=c, Y=y)
    module = b.finish()
    old = net_view(module, library)
    module.set_refs([(module.instances[0], "NAND2_X1_BA")])
    view = assert_matches_walk(module, library)
    assert walks[0] == 3
    assert view.in_ids[0] == tuple(reversed(old.in_ids[0]))
