"""Behavioural macro model: the two evaluation paths must agree, FP
semantics must track quantized references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import MacroArchitecture
from repro.errors import SimulationError
from repro.sim.functional import DCIMMacroModel, MacCycleTrace
from repro.spec import FP8, INT4, INT8, MacroSpec


def _model(h=8, w=8, mcr=2, fmt=INT4):
    spec = MacroSpec(
        height=h, width=w, mcr=mcr, input_formats=(fmt,), weight_formats=(fmt,)
    )
    return DCIMMacroModel(spec)


class TestWeights:
    def test_int_pack_unpack_roundtrip(self):
        m = _model()
        w = np.array([[3, -4], [7, 0], [-8, 1], [2, 2], [5, -1], [-3, 6], [0, -8], [1, 7]])
        m.set_weights_int(0, w, INT4)
        assert (m.group_weights(0) == w).all()

    def test_sign_extension_into_group(self):
        m = _model()
        w = np.full((8, 2), -1)
        m.set_weights_int(0, w, INT4)
        bits = m.weight_bits(0)
        assert bits.all()  # -1 sign-extends to all ones

    def test_range_check(self):
        m = _model()
        with pytest.raises(SimulationError):
            m.set_weights_int(0, np.full((8, 2), 8), INT4)

    def test_bad_bank(self):
        m = _model()
        with pytest.raises(SimulationError):
            m.set_weights_int(5, np.zeros((8, 2), dtype=int), INT4)

    def test_shape_check(self):
        m = _model()
        with pytest.raises(SimulationError):
            m.set_weights_int(0, np.zeros((4, 2), dtype=int), INT4)


class TestMacEquivalence:
    @given(
        x=st.lists(st.integers(-8, 7), min_size=8, max_size=8),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_cycles_equals_ideal_int4(self, x, seed):
        m = _model()
        rng = np.random.default_rng(seed)
        m.set_weights_int(0, rng.integers(-8, 8, size=(8, 2)), INT4)
        assert m.mac_cycles(x) == m.mac_ideal(x)

    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_cycles_equals_ideal_int8(self, seed):
        spec = MacroSpec(
            height=16,
            width=16,
            mcr=1,
            input_formats=(INT8,),
            weight_formats=(INT8,),
        )
        m = DCIMMacroModel(spec)
        rng = np.random.default_rng(seed)
        m.set_weights_int(0, rng.integers(-128, 128, size=(16, 2)), INT8)
        x = [int(v) for v in rng.integers(-128, 128, size=16)]
        assert m.mac_cycles(x) == m.mac_ideal(x)

    def test_trace_records_cycles(self):
        m = _model()
        m.set_weights_int(0, np.ones((8, 2), dtype=int), INT4)
        trace = MacCycleTrace()
        m.mac_cycles([1] * 8, trace=trace)
        assert len(trace.tree_counts) == 4
        assert len(trace.accumulators) == 4
        assert len(trace.fused) == 2

    def test_extremes(self):
        m = _model()
        m.set_weights_int(0, np.full((8, 2), -8), INT4)
        x = [-8] * 8
        assert m.mac_ideal(x) == [(-8) * (-8) * 8] * 2
        assert m.mac_cycles(x) == m.mac_ideal(x)

    def test_input_range_checked(self):
        m = _model()
        m.set_weights_int(0, np.zeros((8, 2), dtype=int), INT4)
        with pytest.raises(SimulationError):
            m.mac_cycles([100] * 8)


class TestFP:
    def test_fp_mac_tracks_quantized_reference(self):
        spec = MacroSpec(
            height=8,
            width=8,
            mcr=1,
            input_formats=(FP8,),
            weight_formats=(FP8,),
        )
        m = DCIMMacroModel(spec)
        rng = np.random.default_rng(3)
        weights = rng.normal(0, 1.0, size=(8, 1))
        m.set_weights_fp(0, weights.tolist(), FP8)
        x = rng.normal(0, 1.0, size=8)
        got = m.mac_fp(x, FP8)[0]
        exact = float(np.dot(x, weights[:, 0]))
        # Quantization + alignment error: bounded by a modest fraction
        # of the operand magnitudes for E4M3.
        scale = np.abs(x).sum() * max(1.0, np.abs(weights).max())
        assert abs(got - exact) < 0.25 * scale + 0.3

    def test_fp_zero_vector(self):
        spec = MacroSpec(
            height=8,
            width=8,
            mcr=1,
            input_formats=(FP8,),
            weight_formats=(FP8,),
        )
        m = DCIMMacroModel(spec)
        m.set_weights_fp(0, [[1.0]] * 8, FP8)
        assert m.mac_fp([0.0] * 8, FP8)[0] == pytest.approx(0.0)

    def test_fp_weights_require_fp_setter(self):
        m = _model(fmt=INT4)
        with pytest.raises(SimulationError):
            m.set_weights_fp(0, [[1.0, 1.0]] * 8, INT4)


class TestSubControls:
    def test_sub_pattern_stage1_only(self):
        m = _model(fmt=INT4)  # group width 4 -> 2 stages
        assert m.sub_controls() == [1, 0]
        m8 = _model(fmt=INT8, w=8)
        assert m8.sub_controls() == [1, 0, 0]
