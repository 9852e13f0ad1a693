"""Word-line and bit-line driver generators.

The WL driver registers the serial input bit per row, produces its
complement for the NOR multipliers, and buffers it across the array
width; the BL driver does the same for weight-update data down the
array height.  "The power and size of the WL/BL driver depend on the
array dimensions" (paper Section II.B) — the buffer chain is sized from
the actual word-line load.
"""

from __future__ import annotations

import math
from typing import List

from ...errors import SynthesisError
from ..ir import Module, NetlistBuilder

#: Input capacitance (fF) one BUF_X<k> presents and its drive strength
#: relative to X2, used for chain sizing.
_BUF_DRIVES = {2: 1.0, 4: 2.0, 8: 4.0}
#: Load (fF) a single X2 buffer drives with good slew at 40 nm-class.
_LOAD_PER_X2_FF = 12.0


def buffer_chain_for_load(load_ff: float, strength: int) -> List[str]:
    """Choose a buffer chain (cell names) able to drive ``load_ff``.

    The final stage is fixed by the architecture's ``driver_strength``
    knob; pre-drivers are inserted when the fanout ratio would exceed 4.
    """
    if strength not in _BUF_DRIVES:
        raise SynthesisError(f"unsupported driver strength X{strength}")
    chain = [f"BUF_X{strength}"]
    capable = _LOAD_PER_X2_FF * _BUF_DRIVES[strength]
    stages_needed = max(0, math.ceil(math.log(max(load_ff / capable, 1.0), 4)))
    # Repeat the final stage as parallel fingers via extra stages of the
    # same strength (modelled as a deeper chain for timing purposes).
    for _ in range(stages_needed):
        chain.insert(0, "BUF_X2")
    return chain


def generate_wl_driver(
    rows: int,
    wordline_load_ff: float,
    strength: int = 4,
) -> Module:
    """Per-row input register + complement + buffer chain.

    Ports: ``x[0..rows-1]`` serial input bits, ``clk``, outputs
    ``xb[0..rows-1]`` (complement, buffered onto the word lines).
    """
    if rows < 1:
        raise SynthesisError("rows must be positive")
    b = NetlistBuilder(f"wl_driver_{rows}")
    x = b.inputs("x", rows)
    clk = b.inputs("clk")[0]
    xb = b.outputs("xb", rows)
    b.module.set_clocks([clk])

    chain = buffer_chain_for_load(wordline_load_ff, strength)
    for r in range(rows):
        q = b.dff(x[r], clk, hint="inreg")
        node = b.inv(q)
        for i, cell in enumerate(chain):
            if i == len(chain) - 1:
                b.cell(cell, hint="wldrv", A=node, Y=xb[r])
            else:
                node = b.unary(cell, node, hint="wlpre")
    return b.finish()


def generate_bl_driver(
    cols: int,
    bitline_load_ff: float,
    strength: int = 4,
) -> Module:
    """Weight-write driver: registers write data and drives bit lines.

    Ports: ``d[0..cols-1]`` write data, ``we`` write enable, ``clk``;
    outputs ``bl[0..cols-1]``.
    """
    if cols < 1:
        raise SynthesisError("cols must be positive")
    b = NetlistBuilder(f"bl_driver_{cols}")
    d = b.inputs("d", cols)
    we = b.inputs("we")[0]
    clk = b.inputs("clk")[0]
    bl = b.outputs("bl", cols)
    b.module.set_clocks([clk])

    chain = buffer_chain_for_load(bitline_load_ff, strength)
    for c in range(cols):
        q = b.dff(d[c], clk, hint="wreg")
        gated = b.and2(q, we)
        node = gated
        for i, cell in enumerate(chain):
            if i == len(chain) - 1:
                b.cell(cell, hint="bldrv", A=node, Y=bl[c])
            else:
                node = b.unary(cell, node, hint="blpre")
    return b.finish()
