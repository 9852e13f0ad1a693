"""Top-level DCIM macro assembly.

Composes the seven subcircuits into the classic DCIM organization
(paper Fig. 1): WL drivers register the bit-serial inputs and broadcast
their complements across the array; each column multiplies, reduces
through its adder tree, and accumulates in a shift-adder; the output
fusion unit recombines weight-bit columns; an optional FP/INT alignment
unit feeds the drivers.

Two views are produced:

* :func:`generate_column_slice` — the digital logic of one column with
  weight-complement nets as ports.  This is the unit the gate-level
  simulator verifies and the subcircuit library prices.
* :func:`generate_macro` — the full digital macro (all columns + OFUs),
  again with weight ports; :func:`generate_macro_with_array` adds the
  bitcell array for the physical flows.

Pipeline topology (searcher-controlled, see
:class:`~repro.arch.MacroArchitecture`):

``inreg -> WL/mult/tree [treereg] -> S&A accreg [-> OFU inreg | retimed
after OFU stage 1] -> OFU stages [pipe regs] -> outreg``
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ...arch import MacroArchitecture
from ...errors import SynthesisError
from ...spec import MacroSpec
from ..ir import Module, NetlistBuilder
from .addertree import generate_adder_tree, tree_output_width
from .memarray import generate_memory_array
from .multiplier import generate_mult_mux
from .ofu import OFUConfig, generate_ofu, ofu_boundaries
from .shiftadder import accumulator_width, generate_shift_adder


@dataclass(frozen=True)
class MacroShape:
    """Derived widths shared by generators, simulator and SCL."""

    height: int
    width: int
    mcr: int
    input_bits: int
    tree_width: int
    acc_width: int
    ofu_columns: int
    ofu_output_width: int
    n_groups: int
    latency_cycles: int
    prelatency_cycles: int


def macro_shape(spec: MacroSpec, arch: MacroArchitecture) -> MacroShape:
    """Compute every derived dimension for a (spec, architecture) pair."""
    arch.validate_against(spec)
    tree_w = tree_output_width(spec.height)
    acc_w = accumulator_width(tree_w, spec.input_width)
    ofu_cols = spec.max_weight_bits
    if spec.width % ofu_cols:
        raise SynthesisError(
            f"width {spec.width} not divisible by weight bits {ofu_cols}"
        )
    cfg = _ofu_config(spec, arch, acc_w)
    prelatency = (
        1  # input register
        + (1 if arch.column_split > 1 else 0)
        + (1 if arch.reg_after_tree else 0)
    )
    latency = (
        prelatency
        + spec.input_width  # serial accumulation
        + cfg.latency_cycles
        + 1  # output register
    )
    return MacroShape(
        height=spec.height,
        width=spec.width,
        mcr=spec.mcr,
        input_bits=spec.input_width,
        tree_width=tree_w,
        acc_width=acc_w,
        ofu_columns=ofu_cols,
        ofu_output_width=cfg.output_width,
        n_groups=spec.width // ofu_cols,
        latency_cycles=latency,
        prelatency_cycles=prelatency,
    )


def _ofu_config(
    spec: MacroSpec, arch: MacroArchitecture, acc_width: int
) -> OFUConfig:
    stages = max(1, int(math.log2(spec.max_weight_bits)))
    if spec.max_weight_bits < 2:
        raise SynthesisError("OFU needs at least 2 weight bits; got 1")
    retimed = arch.ofu_retimed and arch.reg_after_sna
    bounds = ofu_boundaries(stages, retimed, arch.ofu_pipeline)
    pipeline = tuple(b for b in bounds if not (retimed and b == 1))
    return OFUConfig(
        columns=spec.max_weight_bits,
        input_width=acc_width,
        pipeline_after=pipeline,
        input_register=arch.reg_after_sna,
        retime_first_stage=retimed,
        adder_style="csel" if arch.ofu_csel else "ripple",
    )


# ---------------------------------------------------------------------------
# Column slice.
# ---------------------------------------------------------------------------


def generate_column_slice(
    spec: MacroSpec,
    arch: MacroArchitecture,
) -> Module:
    """Digital logic of one column: multipliers, tree(s), S&A.

    Ports
    -----
    ``xb[0..H-1]``        complement serial input bits (from WL drivers)
    ``wb[0..H*mcr-1]``    complement weight bits, banks interleaved per
                          row (``row*mcr + bank``)
    ``sel[0..k-1]``       MCR bank select (``k = log2(mcr)``, if any)
    ``neg`` / ``clear``   S&A controls
    ``clk``
    ``acc[0..A-1]``       column partial sum (two's complement)
    """
    arch.validate_against(spec)
    h, mcr = spec.height, spec.mcr
    b = NetlistBuilder(f"column_{arch.knob_summary().replace('/', '_')}")
    xb = b.inputs("xb", h)
    wb = b.inputs("wb", h * mcr)
    sel_bits = int(math.log2(mcr)) if mcr > 1 else 0
    sel = b.inputs("sel", sel_bits) if sel_bits else []
    neg = b.inputs("neg")[0]
    clear = b.inputs("clear")[0]
    clk = b.inputs("clk")[0]
    tree_w = tree_output_width(h)
    acc_w = accumulator_width(tree_w, spec.input_width)
    acc = b.outputs("acc", acc_w)
    b.module.set_clocks([clk])

    # Multipliers: one per row.
    mult = generate_mult_mux(mcr, arch.mult_style)
    products: List[str] = []
    for r in range(h):
        p = b.net("prod")
        conn = {"xb": xb[r], "p": p}
        for k in range(mcr):
            conn[f"wb[{k}]"] = wb[r * mcr + k]
        for i, s in enumerate(sel):
            conn[f"sel[{i}]"] = s
        b.submodule(mult, hint="mult", **conn)
        products.append(p)

    # Adder tree(s), optionally split.
    split = arch.column_split
    sub_n = h // split
    sub_w = tree_output_width(sub_n)
    tree_mod, _ = generate_adder_tree(
        sub_n, arch.tree_style, arch.tree_fa_levels, arch.carry_reorder
    )
    partials: List[List[str]] = []
    for s_idx in range(split):
        conn = {}
        for i in range(sub_n):
            conn[f"in[{i}]"] = products[s_idx * sub_n + i]
        outs = b.nets("treeout", sub_w)
        for i in range(sub_w):
            conn[f"sum[{i}]"] = outs[i]
        b.submodule(tree_mod, hint="tree", **conn)
        partials.append(outs)

    if split > 1:
        # Register each sub-tree, then combine with a small RCA tree.
        partials = [b.dff_bus(p, clk, hint="splitreg") for p in partials]
        tree_out = _combine_unsigned(b, partials)[:tree_w]
    else:
        tree_out = partials[0]

    if arch.reg_after_tree:
        tree_out = b.dff_bus(tree_out, clk, hint="treereg")

    sa = generate_shift_adder(tree_w, spec.input_width)
    conn = {"neg": neg, "clear": clear, "clk": clk}
    for i in range(tree_w):
        conn[f"t[{i}]"] = tree_out[i]
    for i in range(acc_w):
        conn[f"acc[{i}]"] = acc[i]
    b.submodule(sa, hint="sna", **conn)
    return b.finish()


def _combine_unsigned(
    b: NetlistBuilder, words: List[List[str]]
) -> List[str]:
    """Unsigned RCA combiner tree for split-column partial counts."""
    level = words
    while len(level) > 1:
        nxt: List[List[str]] = []
        for i in range(0, len(level) - 1, 2):
            a, c = level[i], level[i + 1]
            width = max(len(a), len(c))
            zero = b.const0()
            av = list(a) + [zero] * (width - len(a))
            cv = list(c) + [zero] * (width - len(c))
            sums: List[str] = []
            carry = None
            for j in range(width):
                if carry is None:
                    s, carry = b.half_adder(av[j], cv[j])
                else:
                    s, carry = b.full_adder(av[j], cv[j], carry)
                sums.append(s)
            sums.append(carry)
            nxt.append(sums)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


# ---------------------------------------------------------------------------
# Full macro.
# ---------------------------------------------------------------------------


def generate_macro(
    spec: MacroSpec,
    arch: MacroArchitecture,
) -> Tuple[Module, MacroShape]:
    """Full digital macro: WL input stage, all columns, OFUs, output regs.

    Weight complements remain ports (``wb[(row*mcr+bank)*W + col]``) so
    the same netlist serves simulation (weights forced) and physical
    assembly (array outputs spliced in by
    :func:`generate_macro_with_array`).

    Ports
    -----
    ``x[0..H-1]``   serial input bits (already INT or aligned FP)
    ``wb[...]``     weight complements as above
    ``sel[...]``    MCR bank select
    ``neg, clear``  serial-cycle controls
    ``sub[1..S]``   OFU per-stage subtract controls
    ``clk``
    ``y[g][...]``   fused outputs, flattened as ``y[g*Wout + i]``
    """
    shape = macro_shape(spec, arch)
    h, w, mcr = spec.height, spec.width, spec.mcr
    b = NetlistBuilder(f"dcim_macro_{h}x{w}")
    x = b.inputs("x", h)
    wb = b.inputs("wb", h * mcr * w)
    sel_bits = int(math.log2(mcr)) if mcr > 1 else 0
    sel = b.inputs("sel", sel_bits) if sel_bits else []
    neg = b.inputs("neg")[0]
    clear = b.inputs("clear")[0]
    stages = max(1, int(math.log2(spec.max_weight_bits)))
    sub = b.inputs("sub", stages)
    clk = b.inputs("clk")[0]
    y = b.outputs("y", shape.n_groups * shape.ofu_output_width)
    b.module.set_clocks([clk])

    # WL input stage: register + complement + buffer per row.
    xb: List[str] = []
    for r in range(h):
        q = b.dff(x[r], clk, hint="inreg")
        inv = b.inv(q)
        xb.append(b.buffer(inv, arch.driver_strength))

    col_mod = generate_column_slice(spec, arch)
    acc_nets: List[List[str]] = []
    for c in range(w):
        conn = {"neg": neg, "clear": clear, "clk": clk}
        for r in range(h):
            conn[f"xb[{r}]"] = xb[r]
            for k in range(mcr):
                conn[f"wb[{r * mcr + k}]"] = wb[(r * mcr + k) * w + c]
        for i, s in enumerate(sel):
            conn[f"sel[{i}]"] = s
        accs = b.nets("colacc", shape.acc_width)
        for i in range(shape.acc_width):
            conn[f"acc[{i}]"] = accs[i]
        b.submodule(col_mod, hint=f"col{c}", **conn)
        acc_nets.append(accs)

    cfg = _ofu_config(spec, arch, shape.acc_width)
    ofu_mod = generate_ofu(cfg)
    needs_clk = bool(cfg.pipeline_after) or cfg.input_register
    for g in range(shape.n_groups):
        conn = {}
        for j in range(cfg.columns):
            col = g * cfg.columns + j
            for i in range(shape.acc_width):
                conn[f"a{j}[{i}]"] = acc_nets[col][i]
        for s_i in range(stages):
            conn[f"sub[{s_i}]"] = sub[s_i]
        if needs_clk:
            conn["clk"] = clk
        outs = b.nets("fused", cfg.output_width)
        for i in range(cfg.output_width):
            conn[f"y[{i}]"] = outs[i]
        b.submodule(ofu_mod, hint=f"ofu{g}", **conn)
        regged = b.dff_bus(outs, clk, hint="outreg")
        for i in range(cfg.output_width):
            b.cell("BUF_X2", hint="obuf", A=regged[i], Y=y[g * cfg.output_width + i])
    return b.finish(), shape


def generate_macro_with_array(
    spec: MacroSpec,
    arch: MacroArchitecture,
    array: Optional[Module] = None,
) -> Tuple[Module, MacroShape]:
    """Physical view: digital macro + bitcell array + BL write path.

    The array's read nets drive the macro's weight ports; word lines and
    bit lines surface as macro ports for the weight-update interface.

    ``array`` lets a caller supply a pre-built bitcell array module for
    the same ``(height, width, mcr, memcell)`` — the incremental
    escalation loop reuses one array across implementation attempts,
    since timing fixes never touch it.
    """
    digital, shape = generate_macro(spec, arch)
    if array is None:
        array, _ = generate_memory_array(
            spec.height, spec.width, spec.mcr, arch.memcell
        )
    h, w, mcr = spec.height, spec.width, spec.mcr
    b = NetlistBuilder(f"dcim_macro_phys_{h}x{w}")
    # Mirror digital ports except wb, which becomes internal.
    port_conn = {}
    for pname, port in digital.ports.items():
        if pname.startswith("wb["):
            continue
        if port.direction == "input":
            b.inputs(pname)
        else:
            b.outputs(pname)
        port_conn[pname] = pname
    wl = b.inputs("wl", h * mcr)
    bl = b.inputs("bl", w)
    b.module.set_clocks(["clk"])

    wb_nets = [b.net("wbn") for _ in range(h * mcr * w)]
    arr_conn = {}
    for i in range(h * mcr):
        arr_conn[f"wl[{i}]"] = wl[i]
    for i in range(w):
        arr_conn[f"bl[{i}]"] = bl[i]
    for i in range(h * mcr * w):
        arr_conn[f"wb[{i}]"] = wb_nets[i]
    b.submodule(array, hint="array", **arr_conn)

    for i in range(h * mcr * w):
        port_conn[f"wb[{i}]"] = wb_nets[i]
    b.submodule(digital, hint="core", **port_conn)
    return b.finish(), shape
