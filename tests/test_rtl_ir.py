"""RTL IR: module construction, hierarchy flattening, validation."""

from collections import Counter

import pytest

from repro.errors import SynthesisError
from repro.rtl.ir import Module, NetlistBuilder, bus
from repro.rtl.verilog import emit_verilog


def test_bus_names_lsb_first():
    assert bus("d", 3) == ["d[0]", "d[1]", "d[2]"]
    assert bus("d", 3, msb_first=True) == ["d[2]", "d[1]", "d[0]"]


def test_builder_basic_gates(library):
    b = NetlistBuilder("top")
    a, c = b.inputs("a")[0], b.inputs("c")[0]
    y = b.outputs("y")[0]
    n = b.and2(a, c)
    b.cell("BUF_X2", A=n, Y=y)
    m = b.finish()
    m.validate(library)
    assert m.leaf_count() == 2
    assert m.input_ports == ("a", "c")
    assert m.output_ports == ("y",)


def test_duplicate_instance_rejected():
    m = Module("t")
    m.add_instance("i1", "INV_X1", {"A": "a", "Y": "y"})
    with pytest.raises(SynthesisError):
        m.add_instance("i1", "INV_X1", {"A": "a", "Y": "z"})


def test_port_direction_conflict_rejected():
    m = Module("t")
    m.add_port("p", "input")
    with pytest.raises(SynthesisError):
        m.add_port("p", "output")
    m.add_port("p", "input")  # re-declaring same direction is fine


def test_multiple_drivers_detected(library):
    m = Module("t")
    m.add_port("y", "output")
    m.add_instance("i1", "TIE0", {"Y": "y"})
    m.add_instance("i2", "TIE1", {"Y": "y"})
    with pytest.raises(SynthesisError):
        m.net_drivers(library)


def test_undriven_output_detected(library):
    m = Module("t")
    m.add_port("y", "output")
    with pytest.raises(SynthesisError):
        m.validate(library)


def test_bad_pin_detected(library):
    m = Module("t")
    m.add_port("y", "output")
    m.add_instance("i1", "INV_X1", {"A": "a", "Z": "y"})
    with pytest.raises(SynthesisError):
        m.validate(library)


def test_flatten_splices_ports(library):
    inner = Module("inner")
    inner.add_port("a", "input")
    inner.add_port("y", "output")
    inner.add_instance("inv", "INV_X1", {"A": "a", "Y": "y"})

    outer = Module("outer")
    outer.add_port("x", "input")
    outer.add_port("z", "output")
    outer.add_instance("u0", inner, {"a": "x", "y": "mid"})
    outer.add_instance("u1", inner, {"a": "mid", "y": "z"})

    flat = outer.flatten()
    flat.validate(library)
    assert flat.leaf_count() == 2
    names = [i.name for i in flat.instances]
    assert "u0/inv" in names and "u1/inv" in names
    # The two inverters chain through the outer 'mid' net.
    drivers = flat.net_drivers(library)
    assert "mid" in drivers


def test_flatten_prefixes_internal_nets(library):
    inner = Module("inner")
    inner.add_port("a", "input")
    inner.add_port("y", "output")
    inner.add_net("internal")
    inner.add_instance("g1", "INV_X1", {"A": "a", "Y": "internal"})
    inner.add_instance("g2", "INV_X1", {"A": "internal", "Y": "y"})

    outer = Module("outer")
    outer.add_port("p", "input")
    outer.add_port("q", "output")
    outer.add_instance("sub", inner, {"a": "p", "y": "q"})
    flat = outer.flatten()
    assert "sub/internal" in flat.nets


def test_nested_hierarchy_flatten(library):
    leaf = Module("leaf")
    leaf.add_port("a", "input")
    leaf.add_port("y", "output")
    leaf.add_instance("g", "BUF_X2", {"A": "a", "Y": "y"})

    mid = Module("mid")
    mid.add_port("a", "input")
    mid.add_port("y", "output")
    mid.add_instance("l", leaf, {"a": "a", "y": "y"})

    top = Module("top")
    top.add_port("i", "input")
    top.add_port("o", "output")
    top.add_instance("m", mid, {"a": "i", "y": "o"})
    flat = top.flatten()
    assert [i.name for i in flat.instances] == ["m/l/g"]
    assert flat.instances[0].conn == {"A": "i", "Y": "o"}


def test_cell_histogram_and_area(library):
    b = NetlistBuilder("h")
    x = b.inputs("x")[0]
    y = b.outputs("y")[0]
    n = b.inv(x)
    n = b.inv(n)
    b.cell("BUF_X2", A=n, Y=y)
    m = b.finish()
    hist = Counter(inst.cell_name for inst in m.instances)
    assert hist["INV_X1"] == 2 and hist["BUF_X2"] == 1
    expected = 2 * 0.8 + 1.6
    assert m.total_area_um2(library) == pytest.approx(expected)


def test_const_nets_created_once(library):
    b = NetlistBuilder("c")
    y = b.outputs("y")[0]
    z0 = b.const0()
    z1 = b.const0()
    assert z0 == z1
    b.cell("BUF_X2", A=z0, Y=y)
    m = b.finish()
    ties = [i for i in m.instances if i.cell_name == "TIE0"]
    assert len(ties) == 1
