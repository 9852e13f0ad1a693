"""Activity propagation and power estimation."""

import pytest

from repro.power.activity import (
    GLITCH_DENSITY_CAP,
    NetActivity,
    _propagate_arrays,
)
from repro.power.estimator import (
    estimate_power,
    sparsity_input_stats,
)
from repro.rtl.ir import NetlistBuilder
from repro.rtl.netview import net_view
from repro.tech.process import GENERIC_40NM


def propagate_activity(module, library, input_stats=None):
    """Activity per net name of a flat module: the propagation
    ``estimate_power`` runs, keyed by name instead of net id.

    ``input_stats`` maps primary-input nets (and optionally any net to
    force) to their statistics; unannotated inputs default to
    probability/density 0.5.
    """
    view = net_view(module, library)
    prob, dens, known, extra = _propagate_arrays(view, input_stats)
    stats = {
        name: NetActivity(prob[i], dens[i])
        for i, name in enumerate(view.net_names)
        if known[i]
    }
    stats.update(extra)
    return stats


def _and_module():
    b = NetlistBuilder("andm")
    a = b.inputs("a")[0]
    c = b.inputs("c")[0]
    y = b.outputs("y")[0]
    n = b.and2(a, c)
    b.cell("BUF_X2", A=n, Y=y)
    return b.finish()


def _xor_module():
    b = NetlistBuilder("xorm")
    a = b.inputs("a")[0]
    c = b.inputs("c")[0]
    y = b.outputs("y")[0]
    n = b.xor2(a, c)
    b.cell("BUF_X2", A=n, Y=y)
    return b.finish()


class TestActivity:
    def test_and_probability(self, library):
        stats = propagate_activity(_and_module(), library)
        # p(a AND c) = 0.25 at p=0.5 inputs.
        y_nets = [n for n in stats if n.startswith("and")]
        assert stats[y_nets[0]].probability == pytest.approx(0.25)

    def test_xor_density_sums_inputs(self, library):
        m = _xor_module()
        stats = propagate_activity(
            m,
            library,
            input_stats={
                "a": NetActivity(0.5, 0.3),
                "c": NetActivity(0.5, 0.4),
            },
        )
        xor_net = [n for n in stats if n.startswith("xor")][0]
        # XOR is always sensitized: D(y) = D(a) + D(c).
        assert stats[xor_net].density == pytest.approx(0.7)

    def test_and_gate_attenuates_density(self, library):
        m = _and_module()
        stats = propagate_activity(m, library)
        net = [n for n in stats if n.startswith("and")][0]
        # Each input sensitized with p=0.5 -> D = 0.5*(D_a + D_c) = 0.5.
        assert stats[net].density == pytest.approx(0.5)

    def test_static_weight_kills_activity(self, library):
        m = _and_module()
        stats = propagate_activity(
            m,
            library,
            input_stats={
                "a": NetActivity(0.5, 0.5),
                "c": NetActivity(0.5, 0.0),
            },
        )
        net = [n for n in stats if n.startswith("and")][0]
        assert stats[net].density == pytest.approx(0.25)

    def test_glitch_cap_bounds_density(self, library):
        from repro.rtl.gen.addertree import generate_adder_tree

        tree, _ = generate_adder_tree(64, "rca")
        stats = propagate_activity(tree.flatten(), library)
        assert max(s.density for s in stats.values()) <= GLITCH_DENSITY_CAP


class TestPowerEstimate:
    def test_power_scales_with_frequency(self, library, process):
        m = _and_module()
        p1 = estimate_power(m, library, process, 100.0)
        p2 = estimate_power(m, library, process, 1000.0)
        assert p2.dynamic_mw == pytest.approx(10 * p1.dynamic_mw, rel=1e-6)
        assert p2.leakage_mw == pytest.approx(p1.leakage_mw)

    def test_power_scales_with_voltage_squared(self, library, process):
        m = _and_module()
        p_low = estimate_power(m, library, process, 500.0, vdd=0.7)
        p_nom = estimate_power(m, library, process, 500.0, vdd=0.9)
        ratio = p_low.dynamic_mw / p_nom.dynamic_mw
        assert ratio == pytest.approx((0.7 / 0.9) ** 2, rel=1e-6)

    def test_energy_per_cycle_frequency_invariant(self, library, process):
        m = _xor_module()
        e1 = estimate_power(m, library, process, 100.0).energy_per_cycle_pj
        e2 = estimate_power(m, library, process, 900.0).energy_per_cycle_pj
        assert e1 == pytest.approx(e2, rel=1e-9)

    def test_sparsity_lowers_macro_power(self, small_spec, library, process):
        from repro.arch import MacroArchitecture
        from repro.rtl.gen.macro import generate_macro

        mac, _ = generate_macro(small_spec, MacroArchitecture())
        flat = mac.flatten()
        dense = estimate_power(
            flat, library, process, 400.0,
            input_stats=sparsity_input_stats(flat),
        )
        sparse = estimate_power(
            flat, library, process, 400.0,
            input_stats=sparsity_input_stats(
                flat, input_one_probability=0.1, weight_one_probability=0.2
            ),
        )
        assert sparse.dynamic_mw < dense.dynamic_mw

    def test_report_describe(self, library, process):
        p = estimate_power(_and_module(), library, process, 500.0)
        assert "mW" in p.describe()
        assert p.total_mw == pytest.approx(p.dynamic_mw + p.leakage_mw)

    def test_clock_energy_counted_for_registers(self, library, process):
        b = NetlistBuilder("reg")
        d = b.inputs("d")[0]
        clk = b.inputs("clk")[0]
        q = b.outputs("q")[0]
        b.module.set_clocks([clk])
        s = b.dff(d, clk)
        b.cell("BUF_X2", A=s, Y=q)
        m = b.finish()
        # Even with a frozen data input the register burns clock power.
        p = estimate_power(
            m, library, process, 800.0,
            input_stats={"d": NetActivity(0.5, 0.0)},
        )
        assert p.internal_mw > 0.0
