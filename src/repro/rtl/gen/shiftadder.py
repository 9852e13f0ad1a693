"""Shift-and-adder (S&A) generator.

The S&A accumulates the bit-serial partial sums of one column (paper
Section II.B): inputs arrive MSB-first, so each cycle the accumulator is
shifted left by one and the new adder-tree output is added — or
subtracted on the sign-bit cycle, which implements two's-complement
input weighting:

``acc' = (clear ? 0 : acc << 1) + (neg ? -tree : tree)``

"Its complexity is related to the input bit-width and the height of the
DCIM macro": the accumulator width is the tree-sum width plus the number
of serial input bits, both of which the caller provides.
"""

from __future__ import annotations

from typing import List

from ...errors import SynthesisError
from ..ir import Module, NetlistBuilder


def accumulator_width(tree_width: int, input_bits: int) -> int:
    """Width of the S&A accumulator register."""
    return tree_width + input_bits


def generate_shift_adder(tree_width: int, input_bits: int) -> Module:
    """Build one column's S&A.

    Ports
    -----
    ``t[0..T-1]``    adder-tree sum (unsigned)
    ``neg``          asserted during the input sign-bit cycle (subtract)
    ``clear``        asserted on the first cycle of a new input word
    ``clk``
    ``acc[0..A-1]``  accumulator value (two's complement)
    """
    if tree_width < 1 or input_bits < 1:
        raise SynthesisError("tree_width and input_bits must be positive")
    width = accumulator_width(tree_width, input_bits)
    b = NetlistBuilder(f"shift_adder_t{tree_width}_k{input_bits}")
    t = b.inputs("t", tree_width)
    neg = b.inputs("neg")[0]
    clear = b.inputs("clear")[0]
    clk = b.inputs("clk")[0]
    acc_out = b.outputs("acc", width)
    b.module.set_clocks([clk])

    zero = b.const0()
    nclear = b.inv(clear)

    # Current accumulator state.
    state = [b.net("acc_q") for _ in range(width)]

    # Shifted, clear-gated accumulator: bit 0 becomes 0.
    shifted: List[str] = [zero]
    for i in range(1, width):
        shifted.append(b.and2(state[i - 1], nclear))

    # Conditionally negated tree value, zero-extended then XOR-inverted;
    # the +1 of the two's complement rides in on the adder carry-in.
    addend: List[str] = []
    for i in range(width):
        bit = t[i] if i < tree_width else zero
        addend.append(b.xor2(bit, neg))

    sums = _ripple_add_mod(b, shifted, addend, carry_in=neg)

    for i in range(width):
        d = sums[i]
        q = b.net("acc_d")
        b.module.add_instance(f"acc_reg_{i}", "DFF_X1", {"D": d, "CK": clk, "Q": state[i]})
        b.cell("BUF_X2", hint="accbuf", A=state[i], Y=acc_out[i])
        del q
    return b.finish()


def _ripple_add_mod(
    b: NetlistBuilder, a: List[str], c: List[str], carry_in: str
) -> List[str]:
    """Equal-width ripple add modulo 2^width (two's complement safe)."""
    if len(a) != len(c):
        raise SynthesisError("ripple add operands must match in width")
    sums: List[str] = []
    carry = carry_in
    for i in range(len(a)):
        s, carry = b.full_adder(a[i], c[i], carry)
        sums.append(s)
    return sums
