"""Bitwise multiplier and MCR multiplexer generators.

Paper Section II.B lists three implementation styles, all reproduced:

1. ``pg_1t`` — AutoDCIM's 1T passing gate as the bank multiplexer:
   smallest, but the threshold-voltage drop costs delay and power;
2. ``oai22`` — an OAI22 gate fusing multiplier and multiplexer: saves
   wiring but does not scale beyond MCR=2;
3. ``tg_nor`` — 2T transmission gate for selection plus a NOR gate for
   multiplication: the commonly adopted balance.

Convention: the SRAM bitcell read port provides the *complement* of the
stored weight (``wb``), and the WL driver distributes the *complement*
of the serial input bit (``xb``), so the multiply is a single NOR:
``NOR(xb, wb) = x AND w``.  The OAI22 style instead works on active-high
select/weight pairs and produces the selected weight directly.
"""

from __future__ import annotations

import math
from typing import List

from ...errors import SynthesisError
from ..ir import Module, NetlistBuilder


def generate_mult_mux(
    mcr: int,
    style: str = "tg_nor",
) -> Module:
    """One row's multiplier + bank multiplexer.

    Ports
    -----
    ``xb``             complement of the serial input bit
    ``wb[0..mcr-1]``   complement weight bits from the MCR banks
    ``sel[0..k-1]``    bank select (binary encoded, ``k = log2(mcr)``;
                       absent when ``mcr == 1``)
    ``p``              product bit (``x AND w_selected``)
    """
    if mcr < 1 or mcr & (mcr - 1):
        raise SynthesisError(f"mcr must be a power of two >= 1, got {mcr}")
    if style not in ("tg_nor", "oai22", "pg_1t"):
        raise SynthesisError(f"unknown multiplier style {style!r}")
    if style == "oai22" and mcr > 2:
        raise SynthesisError("oai22 fused mult-mux does not scale beyond MCR=2")

    b = NetlistBuilder(f"mult_mux_{style}_mcr{mcr}")
    xb = b.inputs("xb")[0]
    wb = b.inputs("wb", mcr)
    sel_bits = int(math.log2(mcr)) if mcr > 1 else 0
    sel = b.inputs("sel", sel_bits) if sel_bits else []
    p = b.outputs("p")[0]

    if style == "oai22":
        _build_oai22(b, xb, wb, sel, p)
    else:
        mux_cell = "TGMUX2_X1" if style == "tg_nor" else "PGMUX2_X1"
        wb_sel = _mux_tree(b, wb, sel, mux_cell)
        b.cell("NOR2_X1", hint="mult", A=xb, B=wb_sel, Y=p)
    return b.finish()


def _mux_tree(
    b: NetlistBuilder, data: List[str], sel: List[str], mux_cell: str
) -> str:
    """Binary multiplexer tree over the MCR banks."""
    level = list(data)
    for s in sel:
        nxt: List[str] = []
        for i in range(0, len(level), 2):
            y = b.net("wmux")
            b.cell(mux_cell, hint="wmux", D0=level[i], D1=level[i + 1], S=s, Y=y)
            nxt.append(y)
        level = nxt
    if len(level) != 1:
        raise SynthesisError("mux tree did not converge; sel width mismatch")
    return level[0]


def _build_oai22(
    b: NetlistBuilder, xb: str, wb: List[str], sel: List[str], p: str
) -> None:
    """Fused OAI22 multiplier-multiplexer (MCR <= 2).

    For MCR=2 with a one-hot-decoded select: OAI22 over the active-low
    pairs computes the selected weight complement, then the NOR
    multiplies.  ``OAI22(s0b, w0b, s1b, w1b) = (s0&w0) | (s1&w1)``.
    """
    if len(wb) == 1:
        # Degenerate: no bank mux, just the fused multiply (NOR).
        b.cell("NOR2_X1", hint="mult", A=xb, B=wb[0], Y=p)
        return
    s = sel[0]
    sb = b.inv(s)
    w_sel = b.net("wsel")  # active-high selected weight
    # OAI22(s, wb0, sb, wb1) = (sb & w0) | (s & w1): bank 0 when sel=0.
    b.cell("OAI22_X1", hint="fmm", A=s, B=wb[0], C=sb, D=wb[1], Y=w_sel)
    # p = x & w_sel = NOR(xb, ~w_sel); fold the inversion into a NAND-
    # style structure: NOR(xb, INV(w_sel)).
    w_selb = b.inv(w_sel)
    b.cell("NOR2_X1", hint="mult", A=xb, B=w_selb, Y=p)
