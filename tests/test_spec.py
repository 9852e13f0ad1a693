"""Specification objects: formats, PPA weights, derived dimensions."""

import math

import pytest

from repro.errors import SpecificationError
from repro.spec import (
    BF16,
    FP8,
    INT1,
    INT2,
    INT4,
    INT8,
    DataFormat,
    MacroSpec,
    PPAWeights,
    parse_format,
    spec_from_strings,
)


class TestDataFormat:
    def test_int_formats(self):
        assert INT4.bits == 4 and not INT4.is_float
        assert INT4.serial_bits == 4
        assert INT4.storage_bits == 4

    def test_fp8_is_e4m3(self):
        assert FP8.exponent == 4 and FP8.mantissa == 3
        assert FP8.bias == 7
        assert FP8.serial_bits == 5  # sign + hidden + 3 mantissa

    def test_bf16_split(self):
        assert BF16.exponent == 8 and BF16.mantissa == 7
        assert BF16.bits == 16
        assert BF16.serial_bits == 9

    def test_invalid_fp_split_rejected(self):
        with pytest.raises(SpecificationError):
            DataFormat(name="BAD", kind="fp", bits=8, exponent=5, mantissa=3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError):
            DataFormat(name="X", kind="fixed", bits=8)

    def test_parse_format(self):
        assert parse_format("int8") is INT8
        assert parse_format("BF16") is BF16
        with pytest.raises(SpecificationError):
            parse_format("INT7")


class TestPPAWeights:
    def test_score_is_monotone_in_each_axis(self):
        w = PPAWeights()
        base = w.score(10.0, 1.0, 100.0)
        assert w.score(20.0, 1.0, 100.0) > base
        assert w.score(10.0, 2.0, 100.0) > base
        assert w.score(10.0, 1.0, 200.0) > base

    def test_weighting_shifts_preference(self):
        power_heavy = PPAWeights(power=5.0, performance=1.0, area=1.0)
        area_heavy = PPAWeights(power=1.0, performance=1.0, area=5.0)
        # Design A: low power, big; design B: high power, small.
        a = (1.0, 1.0, 1000.0)
        b = (10.0, 1.0, 100.0)
        assert power_heavy.score(*a) < power_heavy.score(*b)
        assert area_heavy.score(*b) < area_heavy.score(*a)

    def test_score_uses_the_normalized_weights_exactly(self):
        for w in (PPAWeights(), PPAWeights(2.0, 3.0, 5.0), PPAWeights(0.0, 1.0, 0.7)):
            total = w.power + w.performance + w.area
            n = (w.power / total, w.performance / total, w.area / total)
            for point in ((12.5, 1.37, 4.2e5), (0.3, 9.0, 77.0)):
                expected = math.exp(
                    n[0] * math.log(point[0])
                    + n[1] * math.log(point[1])
                    + n[2] * math.log(point[2])
                )
                assert repr(w.score(*point)) == repr(expected)

    def test_rejects_all_zero(self):
        with pytest.raises(SpecificationError):
            PPAWeights(0.0, 0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(SpecificationError):
            PPAWeights(-1.0, 1.0, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(SpecificationError, match="finite"):
                PPAWeights(1.0, 1.0, bad)
            with pytest.raises(SpecificationError, match="finite"):
                MacroSpec.from_dict(dict(MacroSpec().to_dict(), ppa={"power": bad}))


class TestMacroSpec:
    def test_defaults_valid(self):
        spec = MacroSpec()
        assert spec.height == 64 and spec.width == 64 and spec.mcr == 2

    def test_non_power_of_two_rejected(self):
        with pytest.raises(SpecificationError):
            MacroSpec(height=48)
        with pytest.raises(SpecificationError):
            MacroSpec(width=60)

    def test_mcr_range(self):
        with pytest.raises(SpecificationError):
            MacroSpec(mcr=0)
        with pytest.raises(SpecificationError):
            MacroSpec(mcr=16)

    def test_derived_widths_64(self):
        spec = MacroSpec(
            height=64, width=64, input_formats=(INT8,), weight_formats=(INT8,)
        )
        assert spec.tree_sum_width == 7  # floor(log2 64)+1
        assert spec.input_width == 8
        assert spec.accumulator_width == 15
        assert spec.max_weight_bits == 8

    def test_fp_inputs_set_serial_width(self):
        spec = MacroSpec(
            height=64,
            width=64,
            input_formats=(INT4, FP8),
            weight_formats=(INT4,),
        )
        assert spec.input_width == 5  # FP8 significand
        assert spec.needs_fp

    def test_int1_weights_ride_int2_path(self):
        spec = MacroSpec(
            height=8, width=8, input_formats=(INT2,), weight_formats=(INT1,)
        )
        assert spec.max_weight_bits == 2

    def test_int1_only_inputs_rejected(self):
        """The bit-serial datapath needs an input of 2+ serial bits;
        INT1 inputs are fine beside a wider format."""
        with pytest.raises(SpecificationError, match="serial bits"):
            MacroSpec(height=8, width=8, input_formats=(INT1,), weight_formats=(INT4,))
        with pytest.raises(SpecificationError, match="serial bits"):
            MacroSpec.from_dict(dict(MacroSpec().to_dict(), input_formats=[INT1.to_dict()]))
        assert MacroSpec(input_formats=(INT1, INT2)).input_width == 2

    def test_int1_only_inputs_rejected_by_compile_cli(self, capsys):
        from repro.cli import main

        rc = main(["compile", "--height", "8", "--width", "8", "--formats", "INT1",
                   "--no-implement"])
        assert rc != 0
        captured = capsys.readouterr()
        assert "serial bits" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_mac_period(self):
        spec = MacroSpec(mac_frequency_mhz=800.0)
        assert spec.mac_period_ns == pytest.approx(1.25)

    @pytest.mark.parametrize("field", ["mac_frequency_mhz", "update_frequency_mhz"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_frequency_must_be_finite(self, field, value):
        """A NaN passes a ``<= 0`` check and infinity is positive: both
        are refused, as ``MacroSpec.from_dict`` reads them from the JSON
        ``NaN`` and ``1e999``."""
        with pytest.raises(SpecificationError, match=field):
            MacroSpec(**{field: value})
        with pytest.raises(SpecificationError, match=field):
            MacroSpec.from_dict(dict(MacroSpec().to_dict(), **{field: value}))

    def test_nan_frequency_rejected_by_compile_cli(self, capsys):
        """Refused before the search runs: exit 1 with an ``error:``
        line, not a search that ends in "no feasible design"."""
        from repro.cli import main

        rc = main(["compile", "--height", "8", "--width", "8", "--formats",
                   "INT4", "--frequency", "nan", "--no-implement"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error: mac_frequency_mhz must be finite" in captured.err
        assert "feasible" not in captured.err + captured.out

    def test_replace_creates_new(self):
        spec = MacroSpec()
        other = spec.replace(height=128)
        assert other.height == 128 and spec.height == 64

    def test_describe_mentions_formats(self):
        s = MacroSpec(input_formats=(INT4, FP8), weight_formats=(INT4,))
        assert "FP8" in s.describe() and "INT4" in s.describe()

    def test_vdd_window(self):
        with pytest.raises(SpecificationError):
            MacroSpec(vdd=0.3)

    def test_spec_from_strings(self):
        spec = spec_from_strings(32, 32, 2, ["INT4", "FP8"])
        assert spec.height == 32
        assert FP8 in spec.input_formats


class TestCachedDerivedValues:
    """Derived widths are cached on the instance, outside its identity."""

    DERIVED = ("input_width", "widest_formats", "max_weight_bits", "accumulator_width")

    def _spec(self):
        return MacroSpec(
            height=64, width=32, input_formats=(INT4, FP8),
            weight_formats=(INT8, FP8), mac_frequency_mhz=700.0,
        )

    def test_values_match_a_fresh_computation(self):
        spec = self._spec()
        assert spec.input_width == 5  # FP8 streams 5 serial bits
        assert spec.widest_formats == (FP8, INT8)
        assert spec.max_weight_bits == 8
        assert spec.needs_fp
        assert (spec.tree_sum_width, spec.accumulator_width) == (7, 12)

    def test_identity_ignores_the_cache(self):
        import copy
        import dataclasses
        import pickle

        used, fresh = self._spec(), self._spec()
        for name in self.DERIVED:
            getattr(used, name)
        assert set(self.DERIVED) <= set(vars(used))
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert used.to_dict() == fresh.to_dict()
        assert used.canonical_json() == fresh.canonical_json()
        assert used.content_hash() == fresh.content_hash()
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(used, protocol) == pickle.dumps(fresh, protocol)
        clone = pickle.loads(pickle.dumps(used))
        assert clone == used and not set(self.DERIVED) & set(vars(clone))
        assert clone.accumulator_width == used.accumulator_width
        assert copy.deepcopy(used) == used
        narrower = dataclasses.replace(used, input_formats=(INT4,))
        assert narrower.input_width == 4
