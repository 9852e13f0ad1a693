"""Layout substrate: geometry, SDP placement, routing, DRC, LVS, GDS."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.layout import bounding_box, center, overlaps, sweep_overlaps, wire_cap_ff

from repro.arch import MacroArchitecture
from repro.errors import LayoutError
from repro.layout.drc import run_drc
from repro.layout.gds import read_gds_json, write_gds_json
from repro.layout.geometry import Rect
from repro.layout.lvs import run_lvs
from repro.layout.route import estimate_routing
from repro.layout.sdp import place_macro
from repro.rtl.gen.macro import generate_macro_with_array
from repro.rtl.netview import net_view
from repro.spec import INT4, MacroSpec


@pytest.fixture(scope="module")
def placed_small(library):
    spec = MacroSpec(
        height=8, width=8, mcr=2, input_formats=(INT4,), weight_formats=(INT4,)
    )
    module, _ = generate_macro_with_array(spec, MacroArchitecture())
    flat = module.flatten()
    placement = place_macro(flat, library)
    return flat, placement


class TestGeometry:
    def test_rect_properties(self):
        r = Rect(1.0, 2.0, 4.0, 6.0)
        assert r.width == 3.0 and r.height == 4.0 and r.area == 12.0
        assert center(r) == (2.5, 4.0)

    def test_degenerate_rejected(self):
        with pytest.raises(LayoutError):
            Rect(2.0, 0.0, 1.0, 1.0)

    def test_overlap_semantics(self):
        a = Rect(0, 0, 2, 2)
        assert overlaps(a, Rect(1, 1, 3, 3))
        assert not overlaps(a, Rect(2, 0, 4, 2))  # shared edge
        assert not overlaps(a, Rect(5, 5, 6, 6))

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 50), st.floats(0, 50), st.floats(0.5, 3), st.floats(0.5, 3)
            ),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_sweep_matches_bruteforce(self, raw):
        rects = [
            (f"r{i}", Rect(x, y, x + w, y + h))
            for i, (x, y, w, h) in enumerate(raw)
        ]
        swept = {frozenset(p) for p in sweep_overlaps(rects)}
        brute = set()
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                if overlaps(rects[i][1], rects[j][1]):
                    brute.add(frozenset((rects[i][0], rects[j][0])))
        assert swept == brute

    def test_hpwl(self):
        box = bounding_box([(0, 0), (3, 4)])
        assert box.width + box.height == 7.0
        with pytest.raises(LayoutError):
            bounding_box([])


def _rows(placement):
    """name -> [x0, y0, x1, y1]"""
    return dict(zip(placement.names, placement.coords.tolist()))


class TestSDP:
    def test_all_instances_placed(self, placed_small):
        flat, placement = placed_small
        assert placement.coords.shape == (len(placement.names), 4)
        assert set(placement.names) == {i.name for i in flat.instances}

    def test_sram_cells_on_grid(self, placed_small, library):
        flat, placement = placed_small
        rows = _rows(placement)
        ys = set()
        for inst in flat.instances:
            if library.cell(inst.cell_name).is_memory:
                ys.add(round(rows[inst.name][1], 4))
        # Grid: row pitch equals the SRAM cell height (1.0 um).
        ys = sorted(ys)
        steps = {round(b - a, 4) for a, b in zip(ys, ys[1:])}
        assert steps == {1.0}

    def test_columns_ordered_left_to_right(self, placed_small):
        flat, placement = placed_small
        rows = _rows(placement)
        def col_x(c):
            xs = [
                rows[i.name][0]
                for i in flat.instances
                if f"/col{c}_" in i.name or i.name.startswith(f"core_") and f"col{c}_" in i.name
            ]
            return min(xs)
        assert col_x(0) < col_x(3) < col_x(7)

    def test_utilization_reasonable(self, placed_small):
        _, placement = placed_small
        assert 0.3 < placement.utilization <= 0.95

    def test_outline_described(self, placed_small):
        _, placement = placed_small
        text = placement.describe()
        assert "mm^2" in text and "pitch" in text


class TestRouteDrcLvs:
    def test_drc_clean(self, placed_small):
        _, placement = placed_small
        assert run_drc(placement).clean

    def test_lvs_clean_and_detects_tamper(self, placed_small):
        flat, placement = placed_small
        report = run_lvs(flat, placement)
        assert report.clean
        # Tamper: drop an instance from the layout.
        broken = dataclasses.replace(
            placement, names=placement.names[1:], coords=placement.coords[1:]
        )
        bad = run_lvs(flat, broken)
        assert not bad.clean
        assert any(m.kind == "missing" for m in bad.mismatches)

    def test_lvs_reports_missing_then_extra(self, placed_small):
        """A placed instance swapped for one the schematic lacks: one
        ``missing`` (schematic order), then one ``extra`` (placement
        order), each naming its instance."""
        flat, placement = placed_small
        victim = placement.names[3]
        names = list(placement.names)
        names[3] = "ghost_cell"
        swapped = dataclasses.replace(placement, names=names)
        bad = run_lvs(flat, swapped)
        assert [(m.kind, m.instance) for m in bad.mismatches] == [
            ("missing", victim),
            ("extra", "ghost_cell"),
        ]
        assert bad.compared_instances == len(flat.instances)

    def test_routing_estimate(self, placed_small, library, process):
        flat, placement = placed_small
        est = estimate_routing(flat, placement, library, process)
        assert est.total_wirelength_um > 0
        assert 0 < est.congestion < 1.0
        # wire loads are consistent with lengths
        some_net = int(np.argmax(est.net_lengths_um))
        assert est.net_caps_ff[some_net] == pytest.approx(
            wire_cap_ff(process, est.net_lengths_um[some_net])
        )

    def test_wire_load_fn_defaults_to_zero(self, placed_small, library, process):
        """The wire load is one length and cap per net id of the view,
        and a net with fewer than two pins (an unloaded output, an
        unused port) reads 0."""
        flat, placement = placed_small
        est = estimate_routing(flat, placement, library, process)
        view = net_view(flat, library)
        assert est.net_lengths_um.shape == est.net_caps_ff.shape == (view.n_nets,)
        pins = np.zeros(view.n_nets, dtype=np.int64)
        for group in view.groups:
            for table in (group.in_ids, group.out_ids):
                ids = table[table >= 0]
                np.add.at(pins, ids, 1)
        lonely = pins < 2
        assert lonely.any()
        assert not est.net_lengths_um[lonely].any()
        assert not est.net_caps_ff[lonely].any()


class TestGDS:
    def test_roundtrip(self, placed_small, library):
        flat, placement = placed_small
        text = write_gds_json(flat, placement, library)
        back = read_gds_json(text)
        assert len(back["instances"]) == len(placement.names)
        assert back["header"]["design"] == flat.name

    def test_layers_distinguish_sram(self, placed_small, library):
        flat, placement = placed_small
        back = read_gds_json(write_gds_json(flat, placement, library))
        layers = {rec["layer"] for rec in back["instances"].values()}
        assert 10 in layers and 20 in layers

    def test_truncated_stream_rejected(self, placed_small, library):
        flat, placement = placed_small
        text = write_gds_json(flat, placement, library)
        truncated = "\n".join(text.splitlines()[:-1])
        with pytest.raises(LayoutError):
            read_gds_json(truncated)


class TestLayoutArena:
    def test_warm_replay_bit_identical(self, placed_small, library):
        from repro.layout.arena import LayoutArena

        flat, reference = placed_small
        arena = LayoutArena()
        cold = arena.place(flat, library)
        warm = arena.place(flat, library)
        for placement in (cold, warm):
            assert placement.names == reference.names
            assert np.array_equal(placement.coords, reference.coords)
            assert placement.outline == reference.outline
        stats = arena.stats(flat, library)
        assert stats["place_scans"] == 1
        assert stats["place_replays"] == 1

    def test_route_reused_only_when_placement_matches(
        self, placed_small, library, process
    ):
        from repro.layout.arena import LayoutArena

        flat, _ = placed_small
        arena = LayoutArena()
        p1 = arena.place(flat, library)
        r1 = arena.route(flat, p1, library, process)
        p2 = arena.place(flat, library)
        r2 = arena.route(flat, p2, library, process)
        # Bit-identical replay -> the same estimate object, whose cap
        # array keeps STA's identity-keyed propagation memo warm.
        assert p2 is not p1
        assert r2 is r1

        # A genuinely different placement must be re-estimated.
        nudged = dataclasses.replace(p2, coords=p2.coords + 0.1)
        r3 = arena.route(flat, nudged, library, process)
        assert r3 is not r1
        assert arena.stats(flat, library)["route_computes"] == 2
