"""End-to-end integration: the complete pipeline on realistic specs,
including the post-layout escalation loop and artifact coherence."""

import pytest
from test_rtl_verilog import count_instances

from repro import SynDCIM
from repro.spec import FP8, INT4, INT8, MacroSpec


@pytest.fixture(scope="module")
def compiled_32(scl):
    spec = MacroSpec(
        height=32,
        width=32,
        mcr=2,
        input_formats=(INT4, FP8),
        weight_formats=(INT4, FP8),
        mac_frequency_mhz=700.0,
    )
    return SynDCIM(scl=scl).compile(spec)


class TestPipelineCoherence:
    def test_selected_architecture_is_implemented(self, compiled_32):
        impl = compiled_32.implementation
        # The escalation loop may tighten the architecture but only via
        # legal fix moves; the result must still validate and meet spec.
        impl.arch.validate_against(compiled_32.spec)
        assert impl.timing.met
        assert impl.max_frequency_mhz >= compiled_32.spec.mac_frequency_mhz

    def test_verilog_matches_netlist(self, compiled_32):
        impl = compiled_32.implementation
        v = impl.verilog()
        assert count_instances(v) == impl.netlist.leaf_count()

    def test_gds_matches_placement(self, compiled_32):
        from repro.layout.gds import read_gds_json

        impl = compiled_32.implementation
        back = read_gds_json(impl.gds())
        assert len(back["instances"]) == len(impl.placement.names)
        outline = back["header"]["outline"]
        assert outline[2] == pytest.approx(impl.placement.width_um)

    def test_power_at_spec_frequency(self, compiled_32):
        impl = compiled_32.implementation
        assert impl.power.frequency_mhz == pytest.approx(
            compiled_32.spec.mac_frequency_mhz
        )
        assert impl.power.total_mw > 0

    def test_congestion_routable(self, compiled_32):
        assert compiled_32.implementation.routing.congestion < 1.0

    def test_hold_clean_post_layout(self, compiled_32, library):
        from reference.sta import analyze_hold

        impl = compiled_32.implementation
        report = analyze_hold(
            impl.netlist, library, impl.routing.net_caps_ff
        )
        assert report.met

    def test_functional_model_agrees_with_selected_arch(self, compiled_32):
        """The behavioural model accepts and runs the selected
        architecture (sanity that search outputs are simulatable)."""
        import numpy as np
        from repro.sim.functional import DCIMMacroModel

        spec = compiled_32.spec
        model = DCIMMacroModel(spec, compiled_32.selected.arch)
        rng = np.random.default_rng(0)
        model.set_weights_int(
            0, rng.integers(-8, 8, size=(spec.height, model.n_groups)), INT4
        )
        x = [int(v) for v in rng.integers(-16, 16, size=spec.height)]
        assert model.mac_cycles(x) == model.mac_ideal(x)


class TestEscalationLoop:
    def test_escalation_repairs_post_layout_miss(self, scl, library):
        """Force a post-layout miss by choosing a frontier point at the
        optimistic end, then confirm compile() still delivers a met
        implementation via fix escalation."""
        spec = MacroSpec(
            height=64,
            width=64,
            mcr=2,
            input_formats=(INT4, INT8),
            weight_formats=(INT4, INT8),
            mac_frequency_mhz=800.0,
        )
        result = SynDCIM(scl=scl).compile(spec)
        impl = result.implementation
        assert impl.timing.met
        # If escalation ran, the implemented arch differs from the
        # selected one only through fix-move deltas (never a style
        # regression like dropping carry reorder).
        assert impl.arch.carry_reorder or not result.selected.arch.carry_reorder
