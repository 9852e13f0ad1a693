"""Synthesis optimization passes: equivalence and effectiveness.

The passes edit the module they are given, so every equivalence check
builds its netlist twice: one copy stays as elaborated, the other goes
through the pass.
"""

import dataclasses
import random

from reference.gatesim import GateSimulator
from reference.optimize import net_loads

from repro.arch import architecture_space
from repro.rtl.gen.macro import generate_macro, generate_macro_with_array
from repro.rtl.ir import NetlistBuilder
from repro.spec import FP4, INT4, INT8, MacroSpec
from repro.synth.optimize import (
    buffer_high_fanout,
    optimize,
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


def _inverter_fan(n):
    b = NetlistBuilder("fan2")
    a = b.inputs("a")[0]
    outs = b.outputs("y", n)
    for i in range(n):
        b.cell("INV_X1", A=a, Y=outs[i])
    return b.finish()


def test_dead_sweep_removes_unloaded_logic(library):
    m = _module_with_constants()
    swept, n = sweep_dead_logic(m, library)
    assert swept is m and n >= 1
    swept.validate(library)
    assert all(i.cell_name != "XOR2_X1" for i in swept.instances)


def test_optimize_preserves_function(library):
    ref = _module_with_constants()
    opt, stats = optimize(_module_with_constants(), library)
    assert opt is not ref
    assert stats["dead_gates_removed"] >= 1
    s_ref = GateSimulator(ref, library)
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
    assert buffered is m and added >= 3
    buffered.validate(library)
    loads = net_loads(buffered, library)
    assert len(loads.get("a", [])) <= 30 + 1  # repeaters only


def test_fanout_buffering_preserves_function(library):
    m = _inverter_fan(64)
    buffered, added = buffer_high_fanout(_inverter_fan(64), library, limit=16)
    assert added and buffered is not m
    s1, s2 = GateSimulator(m, library), GateSimulator(buffered, library)
    for a_val in (0, 1):
        s1.set_input("a", a_val)
        s2.set_input("a", a_val)
        s1.evaluate()
        s2.evaluate()
        for i in range(64):
            assert s1.net(f"y[{i}]") == s2.net(f"y[{i}]")


def test_sequential_logic_never_swept(library, small_spec, default_arch):
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
    mac, shape = generate_macro(small_spec, default_arch)
    flat = mac.flatten()
    opt, _ = optimize(mac.flatten(), library)
    assert opt is not flat
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


def _all_constant_gates(flat, library):
    """Names of the combinational gates whose every input pin is on a
    net a TIE cell drives."""
    tie = {i.conn["Y"] for i in flat.instances if i.ref in ("TIE0", "TIE1")}
    bad = []
    for inst in flat.instances:
        cell = library.cell(inst.ref)
        if cell.is_sequential or cell.is_memory or not cell.inputs:
            continue
        if all(inst.conn.get(pin) in tie for pin in cell.inputs):
            bad.append(inst.name)
    return bad


def test_generators_emit_no_all_constant_gate(library):
    """No combinational gate of a flattened macro (what the first
    synthesis pass sees) has every input on a TIE net, which is why
    synthesis has no constant-propagation pass.  Covers every
    multiplier style, tree style, FA level and column split of the
    architecture space at MCR 1, 2 and 4, each built once INT-only and
    once INT+FP, with the tree and shift-adder registers on in one of
    the two and off in the other.  One memcell: it only names the
    bitcell array's cells."""
    n = 0
    for mcr in (1, 2, 4):
        specs = [
            MacroSpec(
                height=8, width=8, mcr=mcr,
                input_formats=formats, weight_formats=formats,
            )
            for formats in ((INT4, INT8), (INT4, FP4))
        ]
        space = [a for a in architecture_space(specs[0]) if a.memcell == "DCIM6T"]
        for k, arch in enumerate(space):
            for f, spec in enumerate(specs):
                regs = (k + f) % 2 == 0
                variant = dataclasses.replace(
                    arch, reg_after_tree=regs, reg_after_sna=regs
                )
                module, _ = generate_macro_with_array(spec, variant)
                flat = module.flatten()
                assert _all_constant_gates(flat, library) == [], (spec, variant)
                n += 1
    # 36 + 36 + 24 architectures for MCR 1, 2, 4, two format sets each.
    assert n == 192
