"""Vectorized layout/synthesis kernels against their scalar references.

The implementation-flow hot path (DRC overlap sweep, routing
estimation, the synthesis pass pipeline, shelf packing) was rewritten
over coordinate arrays and the integer-indexed NetView.  These tests pin
the fast kernels to the retained reference implementations — randomized
inputs plus real placed macros — mirroring ``tests/test_vector_kernels``
for the analysis kernels:

* :func:`repro.layout.geometry.overlap_pairs` must produce the exact
  pair list (order included) of the scalar ``sweep_overlaps``;
* :func:`repro.layout.route.estimate_routing` must match
  ``estimate_routing_reference`` bit-for-bit on every per-net length
  and cap;
* the in-place NetView synthesis passes must produce the identical
  netlist (instances, connections, net table, order) as the retained
  ``*_reference`` rebuild passes;
* the vectorized shelf packer must assign the same rows as the scalar
  ``_shelf_pack``;
* ``run_drc`` must sweep the full rect set even when the report caps
  (the old scalar loop truncated the sweep input).
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from reference.layout import _shelf_pack, estimate_routing_reference, sweep_overlaps
from reference.optimize import (
    buffer_high_fanout_reference,
    net_loads,
    optimize_reference,
    sweep_dead_logic_reference,
)

from repro.arch import MacroArchitecture
from repro.layout.drc import run_drc
from repro.layout.geometry import Rect, overlap_pairs
from repro.layout.route import estimate_routing
from repro.layout.sdp import _pack_rows, place_macro
from repro.rtl.gen.macro import generate_macro, generate_macro_with_array
from repro.rtl.netview import net_view
from repro.spec import INT4, INT8, MacroSpec
from repro.synth.optimize import (
    buffer_high_fanout,
    optimize,
    sweep_dead_logic,
)


@pytest.fixture(scope="module")
def placed_macro(library):
    spec = MacroSpec(
        height=16,
        width=16,
        mcr=2,
        input_formats=(INT4, INT8),
        weight_formats=(INT4, INT8),
    )
    module, _ = generate_macro_with_array(spec, MacroArchitecture())
    flat = module.flatten()
    flat, _ = optimize(flat, library)
    placement = place_macro(flat, library)
    return flat, placement


def _random_rects(rng, n, span=60.0, max_dim=4.0):
    rects = []
    for i in range(n):
        x = rng.uniform(0, span)
        y = rng.uniform(0, span)
        w = rng.uniform(0.0, max_dim)
        h = rng.uniform(0.0, max_dim)
        rects.append((f"r{i}", Rect(x, y, x + w, y + h)))
    return rects


class TestOverlapPairsEquivalence:
    def test_randomized_exact_match(self):
        rng = random.Random(7)
        for _ in range(60):
            rects = _random_rects(rng, rng.randint(2, 80))
            names = [n for n, _ in rects]
            coords = np.array(
                [[r.x0, r.y0, r.x1, r.y1] for _, r in rects]
            )
            assert overlap_pairs(names, coords) == list(sweep_overlaps(rects))

    def test_shared_edges_and_ties(self):
        rects = [
            ("a", Rect(0, 0, 2, 2)),
            ("b", Rect(0, 0, 2, 2)),  # identical x0: stable-sort tie
            ("c", Rect(2, 0, 4, 2)),  # shared edge with a/b: no overlap
            ("d", Rect(1, 1, 3, 3)),
            ("e", Rect(1.5, -1, 1.7, 5)),  # tall sliver crossing rows
        ]
        names = [n for n, _ in rects]
        coords = np.array([[r.x0, r.y0, r.x1, r.y1] for _, r in rects])
        assert overlap_pairs(names, coords) == list(sweep_overlaps(rects))

    def test_degenerate_zero_size(self):
        rects = [("a", Rect(1, 1, 1, 1)), ("b", Rect(1, 1, 1, 1)),
                 ("c", Rect(0, 0, 3, 3))]
        names = [n for n, _ in rects]
        coords = np.array([[r.x0, r.y0, r.x1, r.y1] for _, r in rects])
        assert overlap_pairs(names, coords) == list(sweep_overlaps(rects))

    def test_macro_placement_is_clean_in_both(self, placed_macro):
        _, placement = placed_macro
        names, coords = placement.names, placement.coords
        fast = overlap_pairs(names, coords)
        rects = [(name, Rect(*row)) for name, row in zip(names, coords.tolist())]
        ref = list(sweep_overlaps(rects))
        assert fast == ref == []


class TestDRCTruncation:
    def _stacked_placement(self, placement, n, offenders):
        """`n` overlapping cells at one spot + `offenders` outside."""
        names = [f"c{i}" for i in range(n + offenders)]
        coords = np.zeros((n + offenders, 4))
        coords[:n] = [1.0, 1.0, 2.0, 2.0]
        for j in range(offenders):
            coords[n + j] = [-10.0 - j, -10.0, -9.0 - j, -9.0]
        return dataclasses.replace(
            placement,
            names=names,
            coords=coords,
            outline=Rect(0.0, 0.0, 50.0, 50.0),
        )

    def test_report_caps_but_sweep_sees_everything(self, placed_macro):
        _, placement = placed_macro
        # 12 boundary offenders hit max_violations=10 first; the 8
        # stacked cells must STILL be swept (8*7/2 = 28 overlaps).
        broken = self._stacked_placement(placement, n=8, offenders=12)
        report = run_drc(broken, max_violations=10)
        assert len(report.violations) == 10
        assert report.truncated
        assert report.total_violations == 12 + 28
        assert not report.clean
        assert "reported" in report.describe()

    def test_uncapped_report_counts(self, placed_macro):
        _, placement = placed_macro
        broken = self._stacked_placement(placement, n=4, offenders=3)
        report = run_drc(broken)
        rules = [v.rule for v in report.violations]
        assert rules.count("boundary") == 3
        assert rules.count("overlap") == 6
        assert not report.truncated
        assert report.total_violations == 9

    def test_clean_macro(self, placed_macro):
        _, placement = placed_macro
        report = run_drc(placement)
        assert report.clean
        assert report.total_violations == 0


class TestRoutingEquivalence:
    def _check(self, flat, placement, library, process):
        fast = estimate_routing(flat, placement, library, process)
        ref = estimate_routing_reference(flat, placement, library, process)
        # Every net the reference wires is a net of the view, and every
        # net id reads the reference's length and cap bit-for-bit (0 for
        # a net no pin touches, which the reference never lists).
        view = net_view(flat, library)
        assert set(ref.net_lengths_um) <= set(view.net_id)
        assert len(fast.net_lengths_um) == len(fast.net_caps_ff) == view.n_nets
        lengths = fast.net_lengths_um.tolist()
        caps = fast.net_caps_ff.tolist()
        for i, net in enumerate(view.net_names):
            assert lengths[i] == ref.net_lengths_um.get(net, 0.0), net
            assert caps[i] == ref.net_caps_ff.get(net, 0.0), net
        assert fast.total_wirelength_um == pytest.approx(
            ref.total_wirelength_um, rel=1e-12
        )
        assert fast.congestion == pytest.approx(ref.congestion, rel=1e-12)
        assert fast.layers_assumed == ref.layers_assumed

    def test_macro_placement(self, placed_macro, library, process):
        flat, placement = placed_macro
        self._check(flat, placement, library, process)

    def test_randomized_scatter(self, placed_macro, library, process):
        """Same netlist, pseudo-random placement in netlist order."""
        flat, placement = placed_macro
        rng = random.Random(3)
        rows = []
        for inst in flat.instances:
            x = rng.uniform(0, 300)
            y = rng.uniform(0, 150)
            rows.append([x, y, x + rng.uniform(0.2, 3), y + 1.8])
        scattered = dataclasses.replace(
            placement,
            names=[inst.name for inst in flat.instances],
            coords=np.array(rows),
        )
        self._check(flat, scattered, library, process)

    def test_missing_instance_raises(self, placed_macro, library, process):
        from repro.errors import LayoutError

        flat, placement = placed_macro
        victim = flat.instances[5].name
        keep = [i for i, name in enumerate(placement.names) if name != victim]
        broken = dataclasses.replace(
            placement,
            names=[placement.names[i] for i in keep],
            coords=placement.coords[keep],
        )
        with pytest.raises(LayoutError, match="missing from placement"):
            estimate_routing(flat, broken, library, process)
        with pytest.raises(LayoutError, match="missing from placement"):
            estimate_routing_reference(flat, broken, library, process)


def _module_equal(a, b):
    __tracebackhide__ = True
    assert a.name == b.name
    assert list(a.ports) == list(b.ports)
    assert a.clock_nets == b.clock_nets
    assert len(a.instances) == len(b.instances)
    for ia, ib in zip(a.instances, b.instances):
        assert ia.name == ib.name
        assert ia.ref == ib.ref
        assert ia.conn == ib.conn, ia.name
    assert list(a.nets) == list(b.nets)


def _synth_modules():
    from repro.rtl.gen.addertree import generate_adder_tree
    from repro.rtl.gen.drivers import generate_wl_driver
    from repro.rtl.gen.ofu import OFUConfig, generate_fuse_stage, generate_ofu
    from repro.rtl.gen.shiftadder import generate_shift_adder

    mods = []
    for style, fa in (("rca", 0), ("cmp42", 0), ("mixed", 2)):
        mod, _ = generate_adder_tree(16, style, fa, True)
        mods.append(mod)
    mods.append(generate_shift_adder(5, 4))
    mods.append(generate_ofu(OFUConfig(columns=4, input_width=12)))
    mods.append(generate_fuse_stage(10, 2))
    mods.append(generate_wl_driver(4, 12.0, 4))
    return [m if m.is_flat else m.flatten() for m in mods]


class TestSynthPassEquivalence:
    """The NetView in-place passes vs the retained rebuild references."""

    def test_all_passes_on_subcircuits(self, library):
        """Each in-place pass edits its own copy of every subcircuit;
        the reference rebuilds from another, which it leaves as is."""
        for fast_fn, ref_fn in (
            (sweep_dead_logic, sweep_dead_logic_reference),
            (buffer_high_fanout, buffer_high_fanout_reference),
        ):
            for m, own in zip(_synth_modules(), _synth_modules()):
                loads = net_loads(m, library)
                maxfan = max(
                    (len(v) for k, v in loads.items() if k not in m.clock_nets),
                    default=0,
                )
                # limit**2 >= max fanout keeps the reference single round
                # a fixed point, so the outputs must match exactly.
                kwargs = (
                    {"limit": max(3, int(maxfan**0.5) + 1)}
                    if fast_fn is buffer_high_fanout else {}
                )
                snapshot = [(i.name, dict(i.conn)) for i in m.instances]
                ref, n_ref = ref_fn(m, library, **kwargs)
                assert snapshot == [(i.name, dict(i.conn)) for i in m.instances]
                fast, n_fast = fast_fn(own, library, **kwargs)
                assert fast is own and fast is not m
                assert n_fast == n_ref, (m.name, fast_fn.__name__)
                _module_equal(fast, ref)

    def test_full_pipeline_on_macro(self, library, small_spec, default_arch):
        mac, _ = generate_macro(small_spec, default_arch)
        flat = mac.flatten()
        fast, stats_fast = optimize(flat, library)
        ref, stats_ref = optimize_reference(mac.flatten(), library)
        assert fast is flat  # edited in place, no copy
        assert stats_fast == stats_ref
        _module_equal(fast, ref)


class TestMultiplyDrivenGuard:
    def test_passes_reject_multiply_driven_nets(self, library):
        """The in-place passes must fail as loudly as the old
        pre-synthesis validate() did — a multiply-driven net would
        otherwise be silently resolved to one driver (and the dead
        sweep could delete the other)."""
        from repro.errors import SynthesisError
        from repro.rtl.ir import NetlistBuilder

        b = NetlistBuilder("mdrv")
        a = b.inputs("a")[0]
        y = b.outputs("y")[0]
        b.cell("INV_X1", A=a, Y=y)
        b.cell("BUF_X2", A=a, Y=y)  # second driver on y
        m = b.finish()
        for pass_fn in (sweep_dead_logic, buffer_high_fanout, optimize):
            with pytest.raises(SynthesisError, match="multiply driven"):
                pass_fn(m, library)


class TestFanoutFixedPoint:
    def test_repeater_sources_respect_limit(self, library):
        """A net with more than limit**2 sinks: the reference leaves the
        repeater source net heavy, the fixed-point pass does not."""
        from repro.rtl.ir import NetlistBuilder

        limit = 3
        b = NetlistBuilder("wide")
        a = b.inputs("a")[0]
        outs = b.outputs("y", 2 * limit * limit + 1)  # 19 sinks > 9
        for i in range(len(outs)):
            b.cell("BUF_X2", A=a, Y=outs[i])
        m = b.finish()

        ref, _ = buffer_high_fanout_reference(m, library, limit=limit)
        ref_loads = net_loads(ref, library)
        assert len(ref_loads["a"]) > limit  # the bug being fixed

        fixed, added = buffer_high_fanout(m, library, limit=limit)
        fixed.validate(library)
        loads = net_loads(fixed, library)
        over = {
            net: len(sinks)
            for net, sinks in loads.items()
            if len(sinks) > limit and net not in fixed.clock_nets
        }
        assert not over
        assert added > 0

    def test_function_preserved_through_fixed_point(self, library):
        from repro.rtl.ir import NetlistBuilder
        from reference.gatesim import GateSimulator

        def fan():
            b = NetlistBuilder("wide2")
            a = b.inputs("a")[0]
            outs = b.outputs("y", 40)
            for i in range(40):
                b.cell("INV_X1", A=a, Y=outs[i])
            return b.finish()

        m = fan()
        buffered, added = buffer_high_fanout(fan(), library, limit=3)
        assert added and buffered is not m
        s1, s2 = GateSimulator(m, library), GateSimulator(buffered, library)
        for val in (0, 1):
            s1.set_input("a", val)
            s2.set_input("a", val)
            s1.evaluate()
            s2.evaluate()
            for i in range(40):
                assert s1.net(f"y[{i}]") == s2.net(f"y[{i}]")


class TestPackRowsEquivalence:
    def _reference_rows(self, widths, region, row_h, library):
        """Drive the scalar _shelf_pack through stub instances."""
        from repro.rtl.ir import Instance

        class _StubCell:
            def __init__(self, w):
                self.width_um = w
                self.area_um2 = w * row_h

        class _StubLib:
            def __init__(self, cells):
                self._cells = cells

            def cell(self, name):
                return self._cells[name]

        cells = {f"W{i}": _StubCell(w) for i, w in enumerate(widths)}
        instances = [
            Instance(name=f"i{i}", ref=f"W{i}", conn={})
            for i in range(len(widths))
        ]
        placed = {}
        ok = _shelf_pack(instances, _StubLib(cells), region, row_h, placed)
        return ok, placed

    def test_randomized_pack_matches_reference(self, library):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 120)
            widths = np.array([rng.uniform(0.2, 4.0) for _ in range(n)])
            region = Rect(
                rng.uniform(0, 5),
                rng.uniform(0, 5),
                rng.uniform(6, 25),
                rng.uniform(6, 80),
            )
            row_h = 1.8
            ok_ref, placed = self._reference_rows(widths, region, row_h, library)
            packed = _pack_rows(widths, region, row_h)
            if not ok_ref:
                assert packed is None
                continue
            assert packed is not None
            x0s, x1s, y0s = packed
            for i in range(n):
                rect = placed[f"i{i}"]
                assert x0s[i] == pytest.approx(rect.x0, rel=1e-12, abs=1e-12)
                assert x1s[i] == pytest.approx(rect.x1, rel=1e-12, abs=1e-12)
                assert y0s[i] == pytest.approx(rect.y0, rel=1e-12, abs=1e-12)

    def test_overflow_detected(self):
        widths = np.array([5.0])
        assert _pack_rows(widths, Rect(0, 0, 4, 10), 1.8) is None
        # Vertical overflow: 4 rows of 1.8 in a 3.0-tall region.
        widths = np.array([3.0, 3.0, 3.0, 3.0])
        assert _pack_rows(widths, Rect(0, 0, 4, 3.0), 1.8) is None


class TestImplementSession:
    def test_array_and_result_reuse(self, library, process):
        from repro.compiler.flow import ImplementSession

        spec = MacroSpec(
            height=8, width=8, mcr=2,
            input_formats=(INT4,), weight_formats=(INT4,),
        )
        arch = MacroArchitecture()
        session = ImplementSession(spec, library=library, process=process)
        a1 = session.array_module(arch)
        a2 = session.array_module(arch)
        assert a1 is a2  # the bitcell array survives attempts
        impl1 = session.implement(arch)
        impl2 = session.implement(arch)
        assert impl1 is impl2  # revisited architectures are cached

    def test_session_matches_oneshot_implement(self, library, process):
        from repro.compiler.flow import ImplementSession, implement

        spec = MacroSpec(
            height=8, width=8, mcr=2,
            input_formats=(INT4,), weight_formats=(INT4,),
        )
        arch = MacroArchitecture()
        session = ImplementSession(spec, library=library, process=process)
        via_session = session.implement(arch)
        oneshot = implement(spec, arch, library=library, process=process)
        assert via_session.summary() == oneshot.summary()
        assert via_session.signoff_clean and oneshot.signoff_clean

    def test_escalation_reuses_session_array(self, scl, library, process):
        """Different architectures in one session share the array."""
        from repro.compiler.flow import ImplementSession

        spec = MacroSpec(
            height=8, width=8, mcr=2,
            input_formats=(INT4,), weight_formats=(INT4,),
        )
        session = ImplementSession(spec, library=library, process=process)
        a0 = MacroArchitecture()
        a1 = a0.replace(driver_strength=8)
        assert a0 != a1
        impl0 = session.implement(a0)
        impl1 = session.implement(a1)
        assert impl0 is not impl1
        assert len(session._arrays) == 1  # same (h, w, mcr, memcell)
        assert impl0.signoff_clean and impl1.signoff_clean
