"""Number formats: encode/decode round trips and alignment semantics
(property-based where it matters)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.formats import decode_int, decode_unsigned, pack_bits, unpack_fp

from repro.errors import SimulationError
from repro.sim.formats import (
    FPFields,
    align_group,
    encode_int,
    group_scale,
    int_range,
    quantize_to_fp,
    wrap_to_width,
)
from repro.spec import BF16, FP4, FP8


class TestIntCodec:
    @given(st.integers(-128, 127))
    def test_roundtrip_int8(self, v):
        assert decode_int(encode_int(v, 8)) == v

    @given(st.integers(2, 20), st.data())
    def test_roundtrip_any_width(self, bits, data):
        lo, hi = int_range(bits)
        v = data.draw(st.integers(lo, hi))
        assert decode_int(encode_int(v, bits)) == v

    def test_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            encode_int(8, 4)
        with pytest.raises(SimulationError):
            encode_int(-9, 4)

    def test_lsb_first_convention(self):
        assert encode_int(1, 4) == [1, 0, 0, 0]
        assert encode_int(-1, 4) == [1, 1, 1, 1]
        assert encode_int(-8, 4) == [0, 0, 0, 1]

    @given(st.integers(-(10 ** 9), 10 ** 9), st.integers(2, 24))
    def test_wrap_to_width_is_mod_2n(self, v, bits):
        w = wrap_to_width(v, bits)
        lo, hi = int_range(bits)
        assert lo <= w <= hi
        assert (w - v) % (1 << bits) == 0

    def test_decode_unsigned(self):
        assert decode_unsigned([1, 0, 1]) == 5

    def test_non_binary_rejected(self):
        with pytest.raises(SimulationError):
            decode_int([0, 2, 0])


class TestFPFields:
    @pytest.mark.parametrize("fmt", [FP4, FP8, BF16])
    def test_pack_unpack_roundtrip(self, fmt):
        import random

        rng = random.Random(fmt.bits)
        for _ in range(50):
            f = FPFields(
                sign=rng.randint(0, 1),
                exponent=rng.randrange(1 << fmt.exponent),
                mantissa=rng.randrange(1 << fmt.mantissa),
                fmt=fmt,
            )
            assert unpack_fp(pack_bits(f), fmt) == f

    def test_fp8_values(self):
        # 1.0 in E4M3: e = bias = 7, m = 0.
        one = FPFields(sign=0, exponent=7, mantissa=0, fmt=FP8)
        assert one.to_float() == pytest.approx(1.0)
        assert one.signed_significand() == 8  # 1.000 -> 1000b

    def test_subnormal_value(self):
        sub = FPFields(sign=0, exponent=0, mantissa=1, fmt=FP8)
        assert sub.to_float() == pytest.approx(2.0 ** (1 - 7) / 8)
        assert sub.signed_significand() == 1

    def test_negative_significand(self):
        f = FPFields(sign=1, exponent=7, mantissa=3, fmt=FP8)
        assert f.signed_significand() == -11

    @pytest.mark.parametrize("fmt", [FP4, FP8])
    def test_quantize_roundtrip_exact_values(self, fmt):
        """Every representable normal value must quantize to itself."""
        for e in range(1, 1 << fmt.exponent):
            for m in range(1 << fmt.mantissa):
                f = FPFields(sign=0, exponent=e, mantissa=m, fmt=fmt)
                q = quantize_to_fp(f.to_float(), fmt)
                assert q.to_float() == pytest.approx(f.to_float())

    @given(st.floats(-200.0, 200.0, allow_nan=False))
    @settings(max_examples=100)
    def test_quantize_error_bounded_fp8(self, value):
        q = quantize_to_fp(value, FP8)
        fmax = FPFields(
            sign=0,
            exponent=(1 << FP8.exponent) - 1,
            mantissa=(1 << FP8.mantissa) - 1,
            fmt=FP8,
        ).to_float()
        if abs(value) > fmax:
            assert abs(q.to_float()) == pytest.approx(fmax)
        elif value != 0:
            # Relative error within half a mantissa step (normals).
            if abs(value) >= 2.0 ** (1 - FP8.bias):
                rel = abs(q.to_float() - value) / abs(value)
                assert rel <= 2.0 ** (-FP8.mantissa - 1) + 1e-9

    def test_quantize_zero(self):
        q = quantize_to_fp(0.0, FP8)
        assert q.to_float() == 0.0


class TestAlignment:
    def test_alignment_shifts_to_max_exponent(self):
        fields = [
            FPFields(sign=0, exponent=7, mantissa=0, fmt=FP8),  # 1.0
            FPFields(sign=0, exponent=5, mantissa=0, fmt=FP8),  # 0.25
        ]
        aligned, emax = align_group(fields)
        assert emax == 7
        assert aligned == [8, 2]  # 1.000 and 1.000>>2

    def test_alignment_truncates_toward_minus_inf(self):
        fields = [
            FPFields(sign=1, exponent=7, mantissa=1, fmt=FP8),  # -1.125
            FPFields(sign=0, exponent=8, mantissa=0, fmt=FP8),
        ]
        aligned, _ = align_group(fields)
        # -9 >> 1 == -5 in Python (floor), matching the netlist.
        assert aligned[0] == -5

    def test_group_scale_reconstructs_value(self):
        fields = [FPFields(sign=0, exponent=9, mantissa=4, fmt=FP8)]
        aligned, emax = align_group(fields)
        value = aligned[0] * group_scale(FP8, emax)
        assert value == pytest.approx(fields[0].to_float())

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1), st.integers(0, 15), st.integers(0, 7)
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60)
    def test_property_alignment_error_bound(self, raw):
        """Aligned-int dot contribution differs from the exact FP value
        by less than one unit of the shared scale per operand."""
        fields = [
            FPFields(sign=s, exponent=e, mantissa=m, fmt=FP8)
            for s, e, m in raw
        ]
        aligned, emax = align_group(fields)
        scale = group_scale(FP8, emax)
        for f, a in zip(fields, aligned):
            assert abs(a * scale - f.to_float()) < scale + 1e-12

    def test_empty_group_rejected(self):
        with pytest.raises(SimulationError):
            align_group([])
