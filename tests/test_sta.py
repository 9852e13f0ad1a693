"""Static timing analysis: arrival propagation, slack, paths."""

import numpy as np
import pytest
from reference.sta import build_timing_graph, net_capacitance

from repro.errors import SynDCIMError, TimingError
from repro.power.estimator import estimate_power
from repro.rtl.ir import Module, NetlistBuilder
from repro.sta.analysis import analyze, minimum_period_ns
from repro.tech.characterization import SLEW_SENSITIVITY, arc_delay_ns
from repro.tech.process import GENERIC_40NM


def _inv_chain(n):
    b = NetlistBuilder("chain")
    a = b.inputs("a")[0]
    y = b.outputs("y")[0]
    node = a
    for i in range(n - 1):
        node = b.inv(node)
    b.cell("INV_X1", A=node, Y=y)
    return b.finish()


def _registered_pipeline():
    """in -> DFF -> 3 inverters -> DFF -> out."""
    b = NetlistBuilder("pipe")
    d = b.inputs("d")[0]
    clk = b.inputs("clk")[0]
    q = b.outputs("q")[0]
    b.module.set_clocks([clk])
    s1 = b.dff(d, clk)
    node = s1
    for _ in range(3):
        node = b.inv(node)
    s2 = b.dff(node, clk)
    b.cell("BUF_X2", A=s2, Y=q)
    return b.finish()


class TestGraph:
    def test_net_capacitance_counts_sinks(self, library):
        m = _inv_chain(3)
        caps = net_capacitance(m, library, wire_load=np.zeros(len(m.nets)))
        # each internal net drives one INV_X1 pin (0.9 fF)
        internal = [n for n in m.nets if n not in ("a", "y")]
        for net in internal:
            assert caps[net] == pytest.approx(0.9)

    def test_startpoints_and_endpoints(self, library):
        g = build_timing_graph(_registered_pipeline(), library)
        # Q of the first DFF launches; D of the second captures.
        assert any(net.startswith("dff_q") for net in g.startpoints)
        kinds = {k for k, _ in g.endpoints.values()}
        assert "setup" in kinds and "output" in kinds

    def test_clock_net_excluded_from_data_graph(self, library):
        g = build_timing_graph(_registered_pipeline(), library)
        for edges in g.edges_from.values():
            for e in edges:
                assert e.src_net != "clk"


class TestAnalysis:
    def test_chain_delay_scales_with_length(self, library):
        d4 = minimum_period_ns(_inv_chain(4), library)
        d8 = minimum_period_ns(_inv_chain(8), library)
        assert d8 > d4
        assert d8 / d4 == pytest.approx(2.0, rel=0.35)

    def test_met_vs_violated(self, library):
        m = _inv_chain(6)
        need = minimum_period_ns(m, library)
        assert analyze(m, library, need * 1.01).met
        assert not analyze(m, library, need * 0.9).met

    def test_register_pipeline_period_includes_clocking(self, library):
        m = _registered_pipeline()
        period = minimum_period_ns(m, library)
        dff = library.cell("DFF_X1")
        assert period > dff.clk_to_q_ns + dff.setup_ns

    def test_critical_path_traceback(self, library):
        m = _inv_chain(5)
        rep = analyze(m, library, 10.0)
        assert len(rep.path) == 5
        assert all(s.cell == "INV_X1" for s in rep.path)
        arrivals = [s.arrival_ns for s in rep.path]
        assert arrivals == sorted(arrivals)

    def test_wire_load_slows_paths(self, library):
        m = _inv_chain(6)
        base = minimum_period_ns(m, library)
        loaded = minimum_period_ns(
            m, library, wire_load=np.full(len(m.nets), 20.0)
        )
        assert loaded > base * 1.5

    def test_wire_load_must_cover_every_net(self, library):
        """A wire-load array from another netlist (here one net short)
        is refused, naming both lengths, not read out of bounds."""
        m = _inv_chain(6)
        n = len(m.nets)
        short = np.full(n - 1, 20.0)
        with pytest.raises(SynDCIMError, match=f"has {n - 1} entries .* {n} nets"):
            minimum_period_ns(m, library, wire_load=short)
        with pytest.raises(SynDCIMError, match=f"has {n - 1} entries .* {n} nets"):
            estimate_power(m, library, GENERIC_40NM, 500.0, wire_load=short)

    def test_slew_affects_delay(self, library):
        cell = library.cell("NAND2_X1")
        arc = next(a for a in cell.arcs_to("Y") if a.input_pin == "A")
        fast = arc_delay_ns(arc, 0.0, 2.0)
        slow = arc_delay_ns(arc, 0.2, 2.0)
        assert slow - fast == pytest.approx(SLEW_SENSITIVITY * 0.2)

    def test_rejects_nonpositive_period(self, library):
        with pytest.raises(TimingError):
            analyze(_inv_chain(3), library, 0.0)

    def test_endpoint_slacks_complete(self, library):
        m = _registered_pipeline()
        rep = analyze(m, library, 2.0)
        assert rep.endpoint in rep.endpoint_slacks
        assert min(rep.endpoint_slacks.values()) == pytest.approx(
            rep.wns_ns, abs=1e-9
        )

    def test_describe_mentions_status(self, library):
        m = _inv_chain(3)
        rep = analyze(m, library, 5.0)
        assert "MET" in rep.describe()


class TestMacroTiming:
    def test_fa_substitution_speeds_up_column(self, small_spec, library):
        """The searcher's 'faster adder' move must actually help at the
        netlist level."""
        from repro.arch import MacroArchitecture
        from repro.rtl.gen.macro import generate_column_slice

        slow = generate_column_slice(
            small_spec, MacroArchitecture(tree_style="cmp42", reg_after_tree=False)
        ).flatten()
        fast = generate_column_slice(
            small_spec,
            MacroArchitecture(
                tree_style="mixed", tree_fa_levels=2, reg_after_tree=False
            ),
        ).flatten()
        assert minimum_period_ns(fast, library) <= minimum_period_ns(
            slow, library
        ) + 1e-9

    def test_tree_register_cuts_path(self, small_spec, library):
        from repro.arch import MacroArchitecture
        from repro.rtl.gen.macro import generate_column_slice

        merged = generate_column_slice(
            small_spec, MacroArchitecture(reg_after_tree=False)
        ).flatten()
        split = generate_column_slice(
            small_spec, MacroArchitecture(reg_after_tree=True)
        ).flatten()
        assert minimum_period_ns(split, library) < minimum_period_ns(
            merged, library
        )


class TestCorners:
    def test_ss_corner_slows_ff_speeds(self, library):
        from repro.tech.process import CORNERS

        m = _inv_chain(6)
        tt = minimum_period_ns(m, library)
        ss = minimum_period_ns(
            m, library, derate=CORNERS["SS"].delay_factor
        )
        ff = minimum_period_ns(
            m, library, derate=CORNERS["FF"].delay_factor
        )
        assert ff < tt < ss
        assert ss / tt == pytest.approx(CORNERS["SS"].delay_factor, rel=0.05)

    def test_bad_derate_rejected(self, library):
        from repro.errors import TimingError

        with pytest.raises(TimingError):
            analyze(_inv_chain(3), library, 1.0, derate=0.0)
