"""Synthesis optimization passes: equivalence and effectiveness."""

import random

import pytest
from reference.gatesim import GateSimulator
from reference.optimize import net_loads

from repro.rtl.ir import NetlistBuilder
from repro.synth.optimize import (
    buffer_high_fanout,
    optimize,
    propagate_constants,
    sweep_dead_logic,
)


def _module_with_constants():
    """y = a AND (0 OR 1) = a; plus dead logic."""
    b = NetlistBuilder("cm")
    a = b.inputs("a")[0]
    y = b.outputs("y")[0]
    zero = b.const0()
    one = b.const1()
    const_or = b.or2(zero, one)          # constant 1
    useful = b.and2(a, const_or)         # == a
    dead = b.xor2(a, one)                # drives nothing
    del dead
    b.cell("BUF_X2", A=useful, Y=y)
    return b.finish()


def test_constant_folding_removes_const_gates(library):
    m = _module_with_constants()
    folded, n = propagate_constants(m, library)
    assert n >= 1
    folded.validate(library)
    names = {i.cell_name for i in folded.instances}
    assert "OR2_X1" not in names


def test_dead_sweep_removes_unloaded_logic(library):
    m = _module_with_constants()
    swept, n = sweep_dead_logic(m, library)
    assert n >= 1
    swept.validate(library)
    assert all(i.cell_name != "XOR2_X1" for i in swept.instances)


def test_optimize_preserves_function(library):
    m = _module_with_constants()
    opt, stats = optimize(m, library)
    assert stats["dead_gates_removed"] >= 1
    s_ref = GateSimulator(m, library)
    s_opt = GateSimulator(opt, library)
    for a in (0, 1):
        s_ref.set_input("a", a)
        s_opt.set_input("a", a)
        s_ref.evaluate()
        s_opt.evaluate()
        assert s_ref.net("y") == s_opt.net("y") == a


def test_fanout_buffering_splits_heavy_nets(library):
    b = NetlistBuilder("fan")
    a = b.inputs("a")[0]
    outs = b.outputs("y", 100)
    for i in range(100):
        b.cell("BUF_X2", A=a, Y=outs[i])
    m = b.finish()
    buffered, added = buffer_high_fanout(m, library, limit=30)
    assert added >= 3
    buffered.validate(library)
    loads = net_loads(buffered, library)
    assert len(loads.get("a", [])) <= 30 + 1  # repeaters only


def test_fanout_buffering_preserves_function(library):
    b = NetlistBuilder("fan2")
    a = b.inputs("a")[0]
    outs = b.outputs("y", 64)
    for i in range(64):
        b.cell("INV_X1", A=a, Y=outs[i])
    m = b.finish()
    buffered, _ = buffer_high_fanout(m, library, limit=16)
    s1, s2 = GateSimulator(m, library), GateSimulator(buffered, library)
    for a_val in (0, 1):
        s1.set_input("a", a_val)
        s2.set_input("a", a_val)
        s1.evaluate()
        s2.evaluate()
        for i in range(64):
            assert s1.net(f"y[{i}]") == s2.net(f"y[{i}]")


def test_sequential_logic_never_swept(library, small_spec, default_arch):
    from repro.rtl.gen.macro import generate_macro

    mac, _ = generate_macro(small_spec, default_arch)
    flat = mac.flatten()
    regs_before = sum(
        1 for i in flat.instances if library.cell(i.cell_name).is_sequential
    )
    opt, _ = optimize(flat, library)
    regs_after = sum(
        1 for i in opt.instances if library.cell(i.cell_name).is_sequential
    )
    assert regs_after == regs_before


def test_macro_equivalence_after_optimize(library, small_spec, default_arch):
    """Random-vector equivalence on the full small macro."""
    from repro.rtl.gen.macro import generate_macro

    mac, shape = generate_macro(small_spec, default_arch)
    flat = mac.flatten()
    opt, _ = optimize(flat, library)
    s1, s2 = GateSimulator(flat, library), GateSimulator(opt, library)
    rng = random.Random(11)
    ports = [p for p in flat.input_ports if p != "clk"]
    for _ in range(4):
        for p in ports:
            v = rng.randint(0, 1)
            s1.set_input(p, v)
            s2.set_input(p, v)
        for _ in range(2):
            s1.clock()
            s2.clock()
        w = shape.ofu_output_width * shape.n_groups
        assert [s1.net(f"y[{i}]") for i in range(w)] == [
            s2.net(f"y[{i}]") for i in range(w)
        ]
