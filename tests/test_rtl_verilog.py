"""Structural Verilog emission."""

import re

from repro.rtl.ir import NetlistBuilder
from repro.rtl.verilog import emit_verilog
from repro.rtl.gen.addertree import generate_adder_tree


def count_instances(verilog: str) -> int:
    """Count instantiation statements in emitted Verilog."""
    body = verilog.split(");", 1)[-1]
    return sum(
        1
        for line in body.splitlines()
        if line.strip().endswith(");")
        and not line.strip().startswith(("input", "output", "wire", "module"))
    )


def _small_module():
    b = NetlistBuilder("demo")
    a = b.inputs("a", 2)
    y = b.outputs("y")[0]
    n = b.and2(a[0], a[1])
    b.cell("BUF_X2", A=n, Y=y)
    return b.finish()


def test_module_header_and_end():
    v = emit_verilog(_small_module())
    assert v.startswith("module demo (")
    assert v.rstrip().endswith("endmodule")


def test_bus_ports_declared_as_vectors():
    v = emit_verilog(_small_module())
    assert re.search(r"input \[1:0\] a;", v)
    assert "output y;" in v


def test_instances_emitted_with_connections():
    v = emit_verilog(_small_module())
    assert ".A(" in v and ".Y(" in v
    assert "AND2_X1" in v and "BUF_X2" in v


def test_hierarchical_names_escaped():
    tree, _ = generate_adder_tree(8, "cmp42")
    flat = tree.flatten()
    v = emit_verilog(flat)
    # escaped identifiers start with backslash and end with a space
    assert "\\" in v


def test_count_instances_matches_leafs():
    m = _small_module()
    v = emit_verilog(m)
    assert count_instances(v) == m.leaf_count()


def test_generated_tree_verilog_is_consistent():
    tree, stats = generate_adder_tree(16, "mixed", fa_levels=1)
    flat = tree.flatten()
    v = emit_verilog(flat)
    assert v.count("CMP42_X1") == stats.compressors
    assert v.count("FA_X1") == stats.full_adders


def test_implemented_macro_bytes_are_pinned():
    """The Verilog and GDS writers' output for two implemented macros,
    byte for byte (sha256): an 8x8 INT4 macro with the default
    architecture, and a 16x8 INT4/FP4 x INT8/FP4 macro with a split
    column, a merged tree register and a retimed, pipelined carry-select
    OFU."""
    import hashlib

    from repro.arch import MacroArchitecture
    from repro.compiler.flow import implement
    from repro.spec import FP4, INT4, INT8, MacroSpec

    small = MacroSpec(
        height=8, width=8, mcr=2, input_formats=(INT4,),
        weight_formats=(INT4,), mac_frequency_mhz=400.0,
    )
    mixed = MacroSpec(
        height=16, width=8, mcr=1, input_formats=(INT4, FP4),
        weight_formats=(INT8, FP4), mac_frequency_mhz=600.0,
    )
    knobs = MacroArchitecture(
        tree_style="cmp42", mult_style="oai22", column_split=2,
        reg_after_tree=False, ofu_pipeline=1, ofu_retimed=True, ofu_csel=True,
    )
    pinned = {
        (small, MacroArchitecture()): (
            "131ef84e32dc4980052c6e4e40b3caea426822a963cd9cd42c71df79afeca668",
            "46adfc993bdc0abb588894db282cb60c596696579a0906b137fdc02ee14fbfe6",
        ),
        (mixed, knobs): (
            "18068f5b73fb092b790236014d636f45cdf0f0ea61f1c68c57f8dfa4c9ed2875",
            "e6e80250ca4ce8fca0ae17ced68380c41faf0fcdd3f658bdb5bb6b4ec55c1cad",
        ),
    }
    for (spec, arch), (verilog, gds) in pinned.items():
        impl = implement(spec, arch)
        assert hashlib.sha256(impl.verilog().encode()).hexdigest() == verilog
        assert hashlib.sha256(impl.gds().encode()).hexdigest() == gds
