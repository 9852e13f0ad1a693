"""Multiplier/mux, memory array, drivers, S&A, OFU, alignment —
functional verification of every subcircuit generator against its
behavioural contract."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.formats import decode_int, pack_bits
from reference.gatesim import GateSimulator

from repro.errors import SynthesisError
from repro.rtl.gen.alignment import generate_alignment_unit
from repro.rtl.gen.drivers import (
    buffer_chain_for_load,
    generate_bl_driver,
    generate_wl_driver,
)
from repro.rtl.gen.memarray import generate_memory_array
from repro.rtl.gen.multiplier import generate_mult_mux
from repro.rtl.gen.ofu import (
    OFUConfig,
    generate_fuse_stage,
    generate_ofu,
    ofu_boundaries,
)
from repro.rtl.gen.shiftadder import accumulator_width, generate_shift_adder
from repro.sim.formats import (
    FPFields,
    align_group,
    encode_int,
    quantize_to_fp,
    wrap_to_width,
)
from repro.spec import FP4, FP8
from repro.tech.stdcells import default_library

LIB = default_library()


class TestMultMux:
    @pytest.mark.parametrize("style", ["tg_nor", "oai22", "pg_1t"])
    @pytest.mark.parametrize("mcr", [1, 2])
    def test_product_truth_table(self, style, mcr):
        mod = generate_mult_mux(mcr, style).flatten()
        sim = GateSimulator(mod, LIB)
        sel_bits = int(math.log2(mcr)) if mcr > 1 else 0
        for x in (0, 1):
            for bank in range(mcr):
                for weights in range(1 << mcr):
                    wvec = [(weights >> i) & 1 for i in range(mcr)]
                    sim.set_input("xb", 1 - x)
                    for i, w in enumerate(wvec):
                        sim.set_input(f"wb[{i}]", 1 - w)
                    for i in range(sel_bits):
                        sim.set_input(f"sel[{i}]", (bank >> i) & 1)
                    sim.evaluate()
                    assert sim.net("p") == (x & wvec[bank])

    @pytest.mark.parametrize("style", ["tg_nor", "pg_1t"])
    @pytest.mark.parametrize("mcr", [4, 8])
    def test_deep_mcr_mux_tree(self, style, mcr):
        mod = generate_mult_mux(mcr, style).flatten()
        sim = GateSimulator(mod, LIB)
        rng = random.Random(7)
        for _ in range(20):
            x = rng.randint(0, 1)
            bank = rng.randrange(mcr)
            wvec = [rng.randint(0, 1) for _ in range(mcr)]
            sim.set_input("xb", 1 - x)
            for i, w in enumerate(wvec):
                sim.set_input(f"wb[{i}]", 1 - w)
            for i in range(int(math.log2(mcr))):
                sim.set_input(f"sel[{i}]", (bank >> i) & 1)
            sim.evaluate()
            assert sim.net("p") == (x & wvec[bank])

    def test_oai22_rejects_deep_mcr(self):
        with pytest.raises(SynthesisError):
            generate_mult_mux(4, "oai22")

    def test_mcr_must_be_power_of_two(self):
        with pytest.raises(SynthesisError):
            generate_mult_mux(3, "tg_nor")

    def test_area_ordering(self):
        areas = {}
        for style in ("tg_nor", "oai22", "pg_1t"):
            flat = generate_mult_mux(2, style).flatten()
            areas[style] = flat.total_area_um2(LIB)
        assert areas["pg_1t"] < areas["tg_nor"]


class TestMemoryArray:
    def test_counts_and_stats(self):
        mod, stats = generate_memory_array(8, 4, 2, "DCIM6T")
        assert stats.compute_cells == 32
        assert stats.storage_cells == 32
        hist = Counter(inst.cell_name for inst in mod.flatten().instances)
        assert hist["DCIM6T"] == 32
        assert hist["SRAM6T"] == 32

    def test_mcr1_has_no_storage_bank(self):
        _, stats = generate_memory_array(8, 8, 1, "DCIM8T")
        assert stats.storage_cells == 0

    def test_ports_cover_all_cells(self):
        mod, _ = generate_memory_array(4, 4, 2)
        assert len([p for p in mod.input_ports if p.startswith("wl")]) == 8
        assert len([p for p in mod.output_ports if p.startswith("wb")]) == 32

    def test_rejects_unknown_cell(self):
        with pytest.raises(SynthesisError):
            generate_memory_array(4, 4, 1, "SRAM5T")


class TestDrivers:
    def test_buffer_chain_grows_with_load(self):
        small = buffer_chain_for_load(5.0, 4)
        large = buffer_chain_for_load(500.0, 4)
        assert len(large) > len(small)
        assert large[-1] == "BUF_X4"

    def test_wl_driver_registers_and_inverts(self):
        mod = generate_wl_driver(4, wordline_load_ff=20.0).flatten()
        sim = GateSimulator(mod, LIB)
        for bits in ((0, 1, 0, 1), (1, 1, 0, 0)):
            for i, b in enumerate(bits):
                sim.set_input(f"x[{i}]", b)
            sim.clock()
            for i, b in enumerate(bits):
                assert sim.net(f"xb[{i}]") == 1 - b

    def test_bl_driver_gates_with_we(self):
        mod = generate_bl_driver(4, bitline_load_ff=20.0).flatten()
        sim = GateSimulator(mod, LIB)
        for i in range(4):
            sim.set_input(f"d[{i}]", 1)
        sim.set_input("we", 0)
        sim.clock()
        assert all(sim.net(f"bl[{i}]") == 0 for i in range(4))
        sim.set_input("we", 1)
        sim.clock()
        assert all(sim.net(f"bl[{i}]") == 1 for i in range(4))


class TestShiftAdder:
    def _run(self, tree_w, k, counts, negs, clears):
        mod = generate_shift_adder(tree_w, k).flatten()
        sim = GateSimulator(mod, LIB)
        width = accumulator_width(tree_w, k)
        acc_model = 0
        sim.reset_state()
        results = []
        for count, neg, clear in zip(counts, negs, clears):
            for i in range(tree_w):
                sim.set_input(f"t[{i}]", (count >> i) & 1)
            sim.set_input("neg", neg)
            sim.set_input("clear", clear)
            sim.clock()
            base = 0 if clear else acc_model << 1
            acc_model = wrap_to_width(base + (-count if neg else count), width)
            got = decode_int([sim.net(f"acc[{i}]") for i in range(width)])
            results.append((got, acc_model))
        return results

    def test_msb_first_accumulation(self):
        # Accumulate x = -3 (1101 two's complement, MSB first) with
        # constant count 5: result = -3 * 5.
        counts = [5, 5, 5, 5]
        bits_msb_first = [1, 1, 0, 1]  # -3 = 1101b
        negs = [1, 0, 0, 0]
        clears = [1, 0, 0, 0]
        # Gate the count by the input bit like the array would.
        seq = [c * bit for c, bit in zip(counts, bits_msb_first)]
        results = self._run(4, 4, seq, negs, clears)
        assert results[-1][0] == -3 * 5
        for got, expect in results:
            assert got == expect

    @settings(max_examples=30, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 15), min_size=5, max_size=5),
        negs=st.lists(st.integers(0, 1), min_size=5, max_size=5),
    )
    def test_property_matches_reference(self, counts, negs):
        clears = [1, 0, 0, 0, 0]
        for got, expect in self._run(4, 5, counts, negs, clears):
            assert got == expect

    def test_rejects_bad_widths(self):
        with pytest.raises(SynthesisError):
            generate_shift_adder(0, 4)


class TestOFU:
    @staticmethod
    def _model(words, stages, subs):
        cur = list(words)
        for s in range(1, stages + 1):
            shift = 1 << (s - 1)
            nxt = []
            for i in range(0, len(cur), 2):
                sub = bool(subs[s - 1]) and i == len(cur) - 2
                hi = -cur[i + 1] if sub else cur[i + 1]
                nxt.append(cur[i] + (hi << shift))
            cur = nxt
        return cur[0]

    @pytest.mark.parametrize("style", ["ripple", "csel"])
    @pytest.mark.parametrize("cols,w", [(2, 6), (4, 8), (8, 10)])
    def test_fusion_matches_model(self, style, cols, w):
        cfg = OFUConfig(columns=cols, input_width=w, adder_style=style)
        sim = GateSimulator(generate_ofu(cfg).flatten(), LIB)
        stages = cfg.stages
        subs = [1] + [0] * (stages - 1)
        rng = random.Random(cols * w)
        for _ in range(25):
            words = [
                rng.randint(-(1 << (w - 1)), (1 << (w - 1)) - 1)
                for _ in range(cols)
            ]
            for j, v in enumerate(words):
                for i, bit in enumerate(encode_int(v, w)):
                    sim.set_input(f"a{j}[{i}]", bit)
            for s, v in enumerate(subs):
                sim.set_input(f"sub[{s}]", v)
            sim.evaluate()
            got = decode_int(
                [sim.net(f"y[{i}]") for i in range(cfg.output_width)]
            )
            assert got == self._model(words, stages, subs)

    def test_pipelined_ofu_latency(self):
        cfg = OFUConfig(
            columns=4, input_width=6, pipeline_after=(1,), input_register=True
        )
        sim = GateSimulator(generate_ofu(cfg).flatten(), LIB)
        words = [3, -2, 5, 1]
        for j, v in enumerate(words):
            for i, bit in enumerate(encode_int(v, 6)):
                sim.set_input(f"a{j}[{i}]", bit)
        sim.set_input("sub[0]", 1)
        sim.set_input("sub[1]", 0)
        sim.reset_state()
        for _ in range(cfg.latency_cycles):
            sim.clock()
        got = decode_int([sim.net(f"y[{i}]") for i in range(cfg.output_width)])
        assert got == self._model(words, 2, [1, 0])

    def test_stage_width_arithmetic(self):
        cfg = OFUConfig(columns=8, input_width=10)
        assert cfg.stage_width(0) == 10
        assert cfg.stage_width(1) == 12
        assert cfg.stage_width(2) == 15
        assert cfg.output_width == cfg.stage_width(3) == 20

    def test_boundaries_rule(self):
        assert ofu_boundaries(3, True, 0) == (1,)
        assert ofu_boundaries(3, True, 1) == (1, 2)
        assert ofu_boundaries(3, False, 2) == (1, 2)
        assert ofu_boundaries(4, True, 1) == (1, 2)
        assert ofu_boundaries(1, False, 2) == ()

    def test_csel_faster_than_ripple(self):
        from repro.sta.analysis import minimum_period_ns

        rpl = generate_fuse_stage(20, 4, adder_style="ripple").flatten()
        cs = generate_fuse_stage(20, 4, adder_style="csel").flatten()
        assert minimum_period_ns(cs, LIB) < minimum_period_ns(rpl, LIB)
        assert cs.total_area_um2(LIB) > rpl.total_area_um2(LIB)

    def test_rejects_non_pow2_columns(self):
        with pytest.raises(SynthesisError):
            OFUConfig(columns=3, input_width=8)


class TestAlignment:
    @pytest.mark.parametrize("fmt", [FP4, FP8])
    def test_alignment_matches_behavioural_twin(self, fmt):
        lanes = 4
        mod = generate_alignment_unit(fmt, lanes).flatten()
        sim = GateSimulator(mod, LIB)
        rng = random.Random(fmt.bits)
        sig_w = fmt.mantissa + 2
        for _ in range(20):
            fields = [
                FPFields(
                    sign=rng.randint(0, 1),
                    exponent=rng.randrange(1 << fmt.exponent),
                    mantissa=rng.randrange(1 << fmt.mantissa),
                    fmt=fmt,
                )
                for _ in range(lanes)
            ]
            for lane, f in enumerate(fields):
                for i, bit in enumerate(pack_bits(f)):
                    sim.set_input(f"fp{lane}[{i}]", bit)
            sim.evaluate()
            expect_aligned, expect_emax = align_group(fields)
            got_emax = sum(
                sim.net(f"emax[{i}]") << i for i in range(fmt.exponent)
            )
            assert got_emax == expect_emax
            for lane in range(lanes):
                got = decode_int(
                    [sim.net(f"q{lane}[{i}]") for i in range(sig_w)]
                )
                assert got == expect_aligned[lane], (fields[lane], lane)

    def test_subnormals_have_no_hidden_one(self):
        fmt = FP8
        mod = generate_alignment_unit(fmt, 2).flatten()
        sim = GateSimulator(mod, LIB)
        # lane0 subnormal (e=0,m=1), lane1 normal e=1,m=0 => emax=1.
        lanes = [
            FPFields(sign=0, exponent=0, mantissa=1, fmt=fmt),
            FPFields(sign=0, exponent=1, mantissa=0, fmt=fmt),
        ]
        for lane, f in enumerate(lanes):
            for i, bit in enumerate(pack_bits(f)):
                sim.set_input(f"fp{lane}[{i}]", bit)
        sim.evaluate()
        aligned, emax = align_group(lanes)
        assert emax == 1
        got0 = decode_int([sim.net(f"q0[{i}]") for i in range(5)])
        # subnormal scales like exponent 1 (no shift, no hidden bit)
        assert got0 == aligned[0] == 1
        got1 = decode_int([sim.net(f"q1[{i}]") for i in range(5)])
        assert got1 == aligned[1] == 8  # 1.000 -> hidden<<3

    def test_rejects_int_format(self):
        from repro.spec import INT8

        with pytest.raises(SynthesisError):
            generate_alignment_unit(INT8, 4)
