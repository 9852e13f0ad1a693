"""Vectorized analysis kernels against their scalar references.

The SCL-build hot path (activity propagation, STA arrival passes, power
summation, netlist compilation) was rewritten over integer/numpy tables
in :mod:`repro.rtl.netview`.  These tests pin the fast paths to the
reference implementations in ``tests/reference/`` on representative
subcircuits — including registered and memory-bearing fabrics — so any
drift in the kernels is caught at unit granularity, not as a mysterious
benchmark delta.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from reference.activity import (
    _cell_output_stats,
    _cell_output_stats_reference,
    propagate_activity_reference,
)
from reference.sta import (
    analyze_graph,
    build_timing_graph,
    net_capacitance,
)
from reference.sta import instance_slacks as instance_slacks_reference

from test_power import propagate_activity
from test_result_log import _deadline

from repro.errors import SimulationError, TimingError
from repro.power.activity import NetActivity, _kernel
from repro.rtl.gen.addertree import generate_adder_tree
from repro.rtl.gen.drivers import generate_wl_driver
from repro.rtl.gen.multiplier import generate_mult_mux
from repro.rtl.gen.ofu import OFUConfig, generate_fuse_stage, generate_ofu
from repro.rtl.gen.shiftadder import generate_shift_adder
from repro.rtl.ir import Module
from repro.rtl.netview import net_view
from repro.scl.builder import _char_input_stats
from repro.sim.vecsim import VecSim
from repro.sta.analysis import analyze, instance_slacks, minimum_period_ns


def _modules():
    mods = []
    for style, fa in (("rca", 0), ("cmp42", 0), ("mixed", 2)):
        mod, _ = generate_adder_tree(16, style, fa, True)
        mods.append(mod)
    mods.append(generate_mult_mux(2, "tg_nor"))
    mods.append(generate_shift_adder(5, 4))
    mods.append(generate_ofu(OFUConfig(columns=4, input_width=12)))
    mods.append(generate_fuse_stage(10, 2))
    mods.append(generate_wl_driver(4, 12.0, 4))
    return [m if m.is_flat else m.flatten() for m in mods]


class TestActivityEquivalence:
    def test_cell_stats_match_reference(self, library):
        for cell in library:
            if cell.truth_table is None:
                continue
            pins = list(cell.input_caps_ff)
            probs = {p: 0.1 + 0.15 * i for i, p in enumerate(pins)}
            dens = {p: 0.05 + 0.2 * i for i, p in enumerate(pins)}
            fast = _cell_output_stats(cell, probs, dens)
            ref = _cell_output_stats_reference(cell, probs, dens)
            assert set(fast) == set(ref)
            for out in ref:
                assert fast[out].probability == pytest.approx(
                    ref[out].probability, rel=1e-12, abs=1e-15
                )
                assert fast[out].density == pytest.approx(
                    ref[out].density, rel=1e-12, abs=1e-15
                )

    def test_one_kernel_per_function(self, library):
        """Activity kernels (and their memos) are keyed by truth table,
        so every vt/drive variant of a function shares one."""
        assert _kernel(library.cell("INV_X1")) is _kernel(
            library.cell("INV_LVT_X4")
        )
        assert _kernel(library.cell("INV_X1")) is not _kernel(
            library.cell("BUF_X2")
        )

    def test_cell_stats_degenerate_probabilities(self, library):
        """p in {0, 1} hits the reference's zero-weight skip rules."""
        for name in ("FA_X1", "CMP42_X1", "MUX2_X1", "XOR2_X1"):
            cell = library.cell(name)
            pins = list(cell.input_caps_ff)
            probs = {p: float(i % 2) for i, p in enumerate(pins)}
            dens = {p: 0.4 for p in pins}
            fast = _cell_output_stats(cell, probs, dens)
            ref = _cell_output_stats_reference(cell, probs, dens)
            for out in ref:
                assert fast[out].probability == pytest.approx(
                    ref[out].probability, rel=1e-12, abs=1e-15
                )
                assert fast[out].density == pytest.approx(
                    ref[out].density, rel=1e-12, abs=1e-15
                )

    def test_propagation_matches_reference(self, library):
        for flat in _modules():
            stats = _char_input_stats(flat)
            fast = propagate_activity(flat, library, stats)
            ref = propagate_activity_reference(flat, library, stats)
            assert set(fast) == set(ref), flat.name
            for net, act in ref.items():
                got = fast[net]
                assert got.probability == pytest.approx(
                    act.probability, rel=1e-9, abs=1e-12
                ), (flat.name, net)
                assert got.density == pytest.approx(
                    act.density, rel=1e-9, abs=1e-12
                ), (flat.name, net)

    def test_forced_internal_and_unknown_nets_pass_through(self, library):
        flat = _modules()[1]
        internal = next(
            n for n in flat.nets if n not in flat.ports
        )
        forced = {
            internal: NetActivity(0.9, 0.1),
            "not_a_net_at_all": NetActivity(0.2, 0.3),
        }
        fast = propagate_activity(flat, library, forced)
        ref = propagate_activity_reference(flat, library, forced)
        assert fast["not_a_net_at_all"] == ref["not_a_net_at_all"]
        assert set(fast) == set(ref)


def _wire_load(module):
    """A custom wire cap per net id (the view's ids follow
    ``module.nets``)."""
    return np.array([0.1 * (hash(net) % 7) for net in module.nets])


class TestStaEquivalence:
    """Reports equal the queue walk's exactly: floats, every endpoint
    slack and the whole critical path.  Most of these modules have nets
    whose winning arcs tie (equal candidates, equal output slews), so
    the path is where a changed tie-break shows."""

    def test_reports_match_scalar_graph(self, library):
        for flat in _modules():
            graph = build_timing_graph(flat, library)
            ref = analyze_graph(graph, 5.0)
            fast = analyze(flat, library, 5.0)
            assert fast == ref, flat.name

    def test_register_between_ports_has_no_arc_to_level(self, library):
        m = Module("reg")
        for port, direction in (("d", "input"), ("clk", "input"), ("q", "output")):
            m.add_port(port, direction)
        m.set_clocks(["clk"])
        m.add_instance("f", "DFF_X1", {"D": "d", "CK": "clk", "Q": "q"})
        graph = build_timing_graph(m, library)
        assert analyze(m, library, 5.0) == analyze_graph(graph, 5.0)
        assert instance_slacks(m, library, 5.0) == instance_slacks_reference(
            graph, 5.0
        )

    def test_min_period_matches_scalar(self, library):
        for flat in _modules():
            graph = build_timing_graph(flat, library)
            ref = 1e9 - analyze_graph(graph, 1e9).wns_ns
            assert minimum_period_ns(flat, library) == pytest.approx(
                ref, rel=1e-12
            ), flat.name

    def test_derate_and_wire_load_paths(self, library):
        for flat in _modules():
            wire = _wire_load(flat)
            graph = build_timing_graph(flat, library, wire_load=wire)
            ref = analyze_graph(graph, 4.0, derate=1.18)
            fast = analyze(flat, library, 4.0, wire_load=wire, derate=1.18)
            assert fast == ref, flat.name

    def test_instance_slacks_match_reverse_topological_reference(self, library):
        unconstrained = 0
        for flat in _modules():
            wire = _wire_load(flat)
            graph = build_timing_graph(flat, library, wire_load=wire)
            ref = instance_slacks_reference(graph, 4.0, derate=1.18)
            fast = instance_slacks(flat, library, 4.0, wire_load=wire, derate=1.18)
            assert fast == ref, flat.name
            unconstrained += sum(s == float("inf") for s in fast.values())
        assert unconstrained  # registers and unloaded logic read inf


def _inverter_loop():
    """Two inverters in a loop, feeding a buffer."""
    m = Module("loop")
    m.add_port("y", "output")
    m.add_net("a")
    m.add_net("b")
    m.add_instance("i1", "INV_X1", {"A": "a", "Y": "b"})
    m.add_instance("i2", "INV_X1", {"A": "b", "Y": "a"})
    m.add_instance("i3", "BUF_X2", {"A": "a", "Y": "y"})
    return m


def _undriven_input():
    """An inverter on a net nothing drives."""
    m = Module("undriven")
    m.add_port("y", "output")
    m.add_net("a")
    m.add_instance("i1", "INV_X1", {"A": "a", "Y": "y"})
    return m


@pytest.mark.parametrize(
    "build, sta_error, cells",
    [
        (_inverter_loop, "combinational cycle detected: relaxed 0 of 3 arcs", 3),
        (_undriven_input, None, 1),
    ],
    ids=["loop", "undriven"],
)
def test_unorderable_netlists_fail_in_bounded_time(library, build, sta_error, cells):
    """A netlist no levelization can order: STA refuses the cycle (an
    undriven net is just a start point to it), while activity and the
    simulator refuse both, each within 5 s rather than spinning."""
    m = build()
    with _deadline(5.0):
        if sta_error is None:
            assert analyze(m, library, 5.0).endpoint == "y"
        else:
            with pytest.raises(TimingError, match=re.escape(sta_error)):
                analyze(m, library, 5.0)
    with _deadline(5.0):
        with pytest.raises(
            SimulationError,
            match=re.escape(f"activity propagation stalled: 0 of {cells} "),
        ):
            propagate_activity(m, library)
    with _deadline(5.0):
        with pytest.raises(
            SimulationError, match=re.escape(f"levelization failed: 0 of {cells} ")
        ):
            VecSim(m, library, batch=4)


def test_named_undriven_input_counts_as_resolved(library):
    """A net ``input_stats`` names is resolved even when nothing
    drives it, as in the reference walk."""
    stats = {"a": NetActivity(0.3, 0.2)}
    fast = propagate_activity(_undriven_input(), library, stats)
    assert fast == propagate_activity_reference(_undriven_input(), library, stats)


class TestLoadsEquivalence:
    def test_net_capacitance_matches_reference(self, library):
        for flat in _modules():
            fast = net_capacitance(flat, library)
            # Scalar reference, as net_capacitance was originally written.
            loads = {net: 0.0 for net in flat.nets}
            sinks = {net: 0 for net in flat.nets}
            for inst in flat.instances:
                cell = library.cell(inst.cell_name)
                for pin, cap in cell.input_caps_ff.items():
                    net = inst.conn.get(pin)
                    if net is None:
                        continue
                    loads[net] += cap
                    sinks[net] += 1
            for net in loads:
                loads[net] += 0.35 * sinks[net]
            assert set(fast) == set(loads)
            for net, value in loads.items():
                assert fast[net] == pytest.approx(value, rel=1e-12, abs=1e-12)


class TestPowerEquivalence:
    def test_estimate_power_matches_scalar_formulas(self, library, process):
        from repro.power.estimator import estimate_power

        for flat in _modules():
            stats = _char_input_stats(flat)
            report = estimate_power(
                flat, library, process, 1000.0, input_stats=stats
            )
            activity = propagate_activity_reference(flat, library, stats)
            loads = net_capacitance(flat, library)
            v = process.vdd_nominal
            switching = sum(
                0.5 * cap * v * v * activity[net].density
                for net, cap in loads.items()
                if net in activity
            )
            internal = 0.0
            memory = 0.0
            leak = 0.0
            for inst in flat.instances:
                cell = library.cell(inst.cell_name)
                leak += cell.leakage_nw
                if cell.is_memory:
                    wl_net = inst.conn.get("WL")
                    act = activity.get(wl_net) if wl_net else None
                    reads = act.density if act else 0.0
                    memory += cell.internal_energy_fj.get("RD", 0.0) * reads
                    continue
                for pin, e in cell.internal_energy_fj.items():
                    net = inst.conn.get(pin)
                    if net is not None and net in activity:
                        internal += e * activity[net].density
                if cell.is_sequential:
                    ck = cell.input_caps_ff.get(cell.clk_pin, 0.0)
                    internal += 0.5 * ck * v * v * 2.0
            to_mw = 1000.0 * 1e-6
            assert report.switching_mw == pytest.approx(
                switching * to_mw, rel=1e-9
            ), flat.name
            assert report.internal_mw == pytest.approx(
                internal * to_mw, rel=1e-9
            )
            assert report.memory_mw == pytest.approx(
                memory * to_mw, rel=1e-9, abs=1e-15
            )
            assert report.leakage_mw == pytest.approx(
                leak * 1e-6, rel=1e-12
            )


class TestNetViewInvalidation:
    def test_view_tracks_module_mutation(self, library):
        flat = _modules()[3]
        v1 = net_view(flat, library)
        assert net_view(flat, library) is v1  # cached
        flat.add_net("late_net")
        v2 = net_view(flat, library)
        assert v2 is not v1
        assert "late_net" in v2.net_id

    def test_flatten_matches_template_expansion(self, library):
        """A module with repeated submodules (template path) flattens to
        the same netlist as naive recursion would: every leaf reachable,
        names hierarchical, nets spliced through ports."""
        from repro.rtl.ir import Module, NetlistBuilder

        child = NetlistBuilder("leafpair")
        a = child.inputs("a")[0]
        y = child.outputs("y")[0]
        child.cell("INV_X1", A=a, Y=child.net("mid"))
        child.cell("BUF_X2", A=a, Y=y)
        cmod = child.finish()

        top = NetlistBuilder("top")
        x = top.inputs("x")[0]
        o0 = top.outputs("o0")[0]
        o1 = top.outputs("o1")[0]
        top.submodule(cmod, hint="u0", a=x, y=o0)
        top.submodule(cmod, hint="u1", a=x, y=o1)  # 2nd use: template
        flat = top.finish().flatten()
        assert flat.is_flat
        assert len(flat.instances) == 4
        drivers = flat.net_drivers(library)
        assert o0 in drivers and o1 in drivers
        names = {i.name for i in flat.instances}
        assert len(names) == 4
        flat.validate(library)


class TestFlattenTemplateStaleness:
    def _grandchild_tree(self):
        from repro.rtl.ir import NetlistBuilder

        g = NetlistBuilder("grand")
        a = g.inputs("a")[0]
        y = g.outputs("y")[0]
        g.cell("INV_X1", A=a, Y=y)
        gmod = g.finish()

        c = NetlistBuilder("child")
        ca = c.inputs("a")[0]
        cy = c.outputs("y")[0]
        c.submodule(gmod, hint="g0", a=ca, y=cy)
        cmod = c.finish()

        p = NetlistBuilder("parent")
        x = p.inputs("x")[0]
        o0 = p.outputs("o0")[0]
        o1 = p.outputs("o1")[0]
        p.submodule(cmod, hint="u0", a=x, y=o0)
        p.submodule(cmod, hint="u1", a=x, y=o1)  # reuse -> template path
        return p.finish(), gmod

    def test_nested_mutation_invalidates_template(self):
        """Mutating a grandchild after a flatten must show up in the
        next flatten — the template cache revalidates recursively."""
        parent, grand = self._grandchild_tree()
        first = parent.flatten()
        assert len(first.instances) == 2
        # Grow the grandchild: the parent's revision does not change,
        # only the grandchild's does.
        mid = grand.add_net("mid2")
        grand.add_instance("inv2", "INV_X1", {"A": mid, "Y": grand.add_net("y2")})
        second = parent.flatten()
        assert len(second.instances) == 4, (
            "stale leaf template: grandchild mutation was dropped"
        )


class TestDuplicateInstanceGuard:
    def test_builder_and_manual_names_share_namespace(self):
        from repro.errors import SynthesisError
        from repro.rtl.ir import NetlistBuilder

        b = NetlistBuilder("dup")
        a = b.inputs("a")[0]
        b.cell("INV_X1", hint="busy_reg", A=a, Y=b.net("y"))
        # b.cell produced "busy_reg_<n>"; colliding manual name raises.
        taken = b.module.instances[-1].name
        with pytest.raises(SynthesisError):
            b.module.add_instance(taken, "INV_X1", {"A": a})
        # And the unchecked fast path guards too.
        with pytest.raises(SynthesisError):
            b.module._add_instance_unchecked(taken, "INV_X1", {"A": a})


class TestSearchRepairFallback:
    def test_cross_path_fallback_survives_estimate_errors(self, scl):
        """Satellite fix: an invalid candidate arch coming out of the
        cross-path fallback must be skipped (like the primary loop
        does), not crash the whole search."""
        from repro.arch import MacroArchitecture
        from repro.search.algorithm import MSOSearcher
        from repro.search.estimate import estimate_macro
        from repro.spec import INT4, MacroSpec

        spec = MacroSpec(
            height=64,
            width=64,
            mcr=2,
            input_formats=(INT4,),
            weight_formats=(INT4,),
            mac_frequency_mhz=3000.0,  # unreachable: repair must escalate
        )
        est = estimate_macro(spec, MacroArchitecture(), scl)
        assert not est.met
        assert not est.critical_segment.name.startswith("ofu")

        def bad_move(spec_, arch):
            return "not-an-architecture"  # _estimate will raise on this

        # Empty MAC-fix family forces the cross-path fallback, whose
        # only move yields a poisoned candidate.
        searcher = MSOSearcher(
            scl,
            mac_fixes=(),
            ofu_fixes=(("bad", bad_move),),
            merge_moves=(),
            tuning_moves=(),
        )
        trace = []
        out = searcher._repair_timing(
            spec, est, "seed", lambda *args: trace.append(args), {}
        )
        assert out is None  # infeasible, but no exception escaped
        assert any(entry[1] == "infeasible" for entry in trace)
