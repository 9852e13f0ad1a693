"""FP/INT alignment unit generator.

"This unit translates floating-point format data to integer format as
required by the DCIM macro through a comparator tree and shifters"
(paper Section II.B, after RedCIM [9]).  For a group of ``n`` FP inputs
it

1. extracts each lane's signed significand (hidden one restored for
   normal numbers, two's complement applied);
2. finds the group maximum exponent with a tournament comparator tree;
3. arithmetic-right-shifts every significand by its exponent deficit
   ``emax - e`` through a barrel shifter (sign-filled, truncating),

producing ``mantissa + 2``-bit integers sharing the exponent ``emax`` —
ready for the bit-serial array.  "The complexity of this unit depends on
the combination of required FP precisions": all sizes derive from the
format's exponent/mantissa split.
"""

from __future__ import annotations

from typing import List

from ...errors import SynthesisError
from ...spec import DataFormat
from ..ir import Module, NetlistBuilder


def generate_alignment_unit(
    fmt: DataFormat,
    lanes: int,
) -> Module:
    """Build an alignment unit for ``lanes`` operands of format ``fmt``.

    Ports
    -----
    ``fp{i}[0..bits-1]``  lane ``i`` packed LSB-first as
                          ``[mantissa | exponent | sign]``
    ``q{i}[0..M+1]``      aligned signed significand of lane ``i``
    ``emax[0..E-1]``      shared (maximum) exponent
    """
    if not fmt.is_float:
        raise SynthesisError(f"{fmt.name} is not a floating-point format")
    if lanes < 1:
        raise SynthesisError("alignment unit needs at least one lane")
    e_w, m_w = fmt.exponent, fmt.mantissa
    sig_w = m_w + 2  # sign + hidden + mantissa, two's complement

    b = NetlistBuilder(f"align_{fmt.name.lower()}_x{lanes}")
    lanes_in = [b.inputs(f"fp{i}", fmt.bits) for i in range(lanes)]
    q_out = [b.outputs(f"q{i}", sig_w) for i in range(lanes)]
    emax_out = b.outputs("emax", e_w)

    exps: List[List[str]] = []
    sigs: List[List[str]] = []
    for i, lane in enumerate(lanes_in):
        mant = lane[:m_w]
        exp = lane[m_w : m_w + e_w]
        sign = lane[m_w + e_w]
        # Effective exponent: subnormals (field 0) scale like exponent 1
        # without the hidden bit, so bit 0 is forced high when the whole
        # field is zero.
        hidden = exp[0]
        for e_bit in exp[1:]:
            hidden = b.or2(hidden, e_bit)
        eff0 = b.or2(exp[0], b.inv(hidden))
        exps.append([eff0] + list(exp[1:]))
        sigs.append(_signed_significand(b, mant, exp, sign))

    emax = _max_tree(b, exps)
    for i in range(e_w):
        b.cell("BUF_X2", hint="emaxbuf", A=emax[i], Y=emax_out[i])

    for i in range(lanes):
        delta = _subtract(b, emax, exps[i])  # emax - e_i >= 0
        aligned = _barrel_shift_right(b, sigs[i], delta)
        for j in range(sig_w):
            b.cell("BUF_X2", hint="qbuf", A=aligned[j], Y=q_out[i][j])
    return b.finish()


def _signed_significand(
    b: NetlistBuilder, mant: List[str], exp: List[str], sign: str
) -> List[str]:
    """Two's-complement significand ``(-1)^s * (hidden.m)``.

    ``hidden`` is 1 for normal numbers (exponent nonzero), 0 for
    subnormals.  Negation = XOR with sign + ripple increment by sign.
    """
    hidden = exp[0]
    for e in exp[1:]:
        hidden = b.or2(hidden, e)
    mag = list(mant) + [hidden, b.const0()]  # sign slot zero
    inverted = [b.xor2(bit, sign) for bit in mag]
    out: List[str] = []
    carry = sign
    for bit in inverted:
        s, carry = b.half_adder(bit, carry)
        out.append(s)
    return out


def _greater_equal(b: NetlistBuilder, a: List[str], c: List[str]) -> str:
    """``a >= c`` for unsigned words: carry-out of ``a + ~c + 1``."""
    carry = b.const1()
    for i in range(len(a)):
        cb = b.inv(c[i])
        _, carry = b.full_adder(a[i], cb, carry)
    return carry


def _max_tree(b: NetlistBuilder, words: List[List[str]]) -> List[str]:
    """Tournament maximum over equal-width unsigned words."""
    level = words
    while len(level) > 1:
        nxt: List[List[str]] = []
        for i in range(0, len(level) - 1, 2):
            a, c = level[i], level[i + 1]
            ge = _greater_equal(b, a, c)
            nxt.append([b.mux2(c[j], a[j], ge) for j in range(len(a))])
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _subtract(b: NetlistBuilder, a: List[str], c: List[str]) -> List[str]:
    """``a - c`` for unsigned words with ``a >= c`` guaranteed."""
    out: List[str] = []
    carry = b.const1()
    for i in range(len(a)):
        cb = b.inv(c[i])
        s, carry = b.full_adder(a[i], cb, carry)
        out.append(s)
    return out


def _barrel_shift_right(
    b: NetlistBuilder, word: List[str], amount: List[str]
) -> List[str]:
    """Arithmetic right shift of a two's-complement word by an unsigned
    amount, sign-filled, truncating toward minus infinity."""
    width = len(word)
    sign = word[-1]
    current = list(word)
    for k, a_bit in enumerate(amount):
        step = 1 << k
        shifted: List[str] = []
        for j in range(width):
            src = current[j + step] if j + step < width else sign
            shifted.append(src)
        current = [b.mux2(current[j], shifted[j], a_bit) for j in range(width)]
    return current
