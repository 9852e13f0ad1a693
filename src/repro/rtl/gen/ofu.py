"""Output fusion unit (OFU) generator.

For multi-bit weights the per-column S&A results must be recombined:
column ``j`` of a weight group carries bit weight ``2^j``, and the MSB
column of a two's-complement weight carries ``-2^(n-1)``.  The OFU "adds
the outputs of the S&As stage by stage, from lower bit-width to higher
bit-width" (paper Section II.B, after RedCIM), which simultaneously
provides every intermediate precision: after stage 1 the results for
2-bit weights are available, after stage 2 for 4-bit, and so on.

Each stage ``s`` fuses word pairs as ``hi * 2^(2^(s-1)) + lo`` with a
per-stage ``sub`` control applied to the stage's *top* pair — the one
whose high word contains the group's most-significant column.  For a
full-width two's-complement weight the MSB column is consumed as a
``hi`` operand exactly once, in stage 1's top pair, so the weight sign
is applied there (``sub = [1, 0, 0, ...]``); every later stage adds,
because the negativity is already baked into the fused word.  Narrower
modes (weights sign-extended across the group) use the same pattern.

Pipelining knobs (searcher-controlled):

* ``pipeline_after`` — stage indices followed by a register bank;
* ``retime_first_stage`` — moves the stage-1 adder in front of the
  S&A/OFU boundary register (the paper's OFU retiming fix).  In this
  module it simply changes which side of stage 1 the input register
  lands on when the caller asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from ...errors import SynthesisError
from ..ir import Module, NetlistBuilder


@lru_cache(maxsize=None)
def ofu_boundaries(
    n_stages: int, retimed: bool, pipeline: int
) -> Tuple[int, ...]:
    """Register-boundary positions (after stage i) shared by the RTL
    generator and the searcher's estimator, so both price the same
    structure.  The retiming register sits after stage 1; extra pipeline
    registers spread evenly across the remaining stages.  Memoized: the
    estimator asks for every candidate, over a handful of distinct
    arguments."""
    bounds = {1} if retimed else set()
    avail = [i for i in range(1, n_stages) if i not in bounds]
    for j in range(pipeline):
        if not avail:
            break
        target = round((j + 1) * n_stages / (pipeline + 1))
        target = min(max(target, 1), n_stages - 1)
        pick = min(avail, key=lambda a: abs(a - target))
        bounds.add(pick)
        avail.remove(pick)
    return tuple(sorted(bounds))


@dataclass(frozen=True)
class OFUConfig:
    """Static shape of one OFU instance.

    ``adder_style`` selects the fusion adders: ``"ripple"`` (minimum
    area/power) or ``"csel"`` — a carry-select implementation that cuts
    the long final-stage carry chains, the "faster adder available in
    the SCL" the searcher reaches for when the OFU limits frequency.
    """

    columns: int
    input_width: int
    pipeline_after: Tuple[int, ...] = ()
    input_register: bool = False
    retime_first_stage: bool = False
    adder_style: str = "ripple"

    def __post_init__(self) -> None:
        if self.columns < 2 or self.columns & (self.columns - 1):
            raise SynthesisError("OFU fuses a power-of-two number of columns")
        if self.input_width < 2:
            raise SynthesisError("OFU input width must be >= 2")
        if self.adder_style not in ("ripple", "csel"):
            raise SynthesisError(f"unknown adder style {self.adder_style!r}")
        n_stages = self.stages
        for s in self.pipeline_after:
            if not 1 <= s <= n_stages:
                raise SynthesisError(f"pipeline_after stage {s} out of range")

    @property
    def stages(self) -> int:
        return self.columns.bit_length() - 1

    def stage_width(self, stage: int) -> int:
        """Word width after ``stage`` fusion stages."""
        w = self.input_width
        for s in range(1, stage + 1):
            w = w + (1 << (s - 1)) + 1
        return w

    @property
    def output_width(self) -> int:
        return self.stage_width(self.stages)

    @property
    def latency_cycles(self) -> int:
        return len(self.pipeline_after) + (1 if self.input_register else 0)


def generate_ofu(config: OFUConfig) -> Module:
    """Build the OFU.

    Ports
    -----
    ``a{j}[0..W-1]``   S&A word of column ``j`` (two's complement)
    ``sub[1..S]``      per-stage subtract controls (bus ``sub``)
    ``clk``            present when any register bank exists
    ``y[0..Wout-1]``   fused result (two's complement)
    """
    b = NetlistBuilder(f"ofu_c{config.columns}_w{config.input_width}")
    words: List[List[str]] = [
        b.inputs(f"a{j}", config.input_width) for j in range(config.columns)
    ]
    sub = b.inputs("sub", config.stages)
    needs_clk = bool(config.pipeline_after) or config.input_register
    clk = b.inputs("clk")[0] if needs_clk else ""
    if needs_clk:
        b.module.set_clocks([clk])

    if config.input_register and not config.retime_first_stage:
        words = [b.dff_bus(w, clk, hint="inreg") for w in words]

    zero = b.const0()
    for stage in range(1, config.stages + 1):
        shift = 1 << (stage - 1)
        s_ctl = sub[stage - 1]
        fused: List[List[str]] = []
        for i in range(0, len(words), 2):
            lo, hi = words[i], words[i + 1]
            # The stage's sub control only reaches the top pair (the one
            # consuming the group's most-significant column as `hi`).
            pair_ctl = s_ctl if i == len(words) - 2 else zero
            fused.append(
                _fuse_pair(b, lo, hi, shift, pair_ctl, config.adder_style)
            )
        words = fused
        if stage == 1 and config.input_register and config.retime_first_stage:
            words = [b.dff_bus(w, clk, hint="retreg") for w in words]
        if stage in config.pipeline_after:
            words = [b.dff_bus(w, clk, hint="pipereg") for w in words]

    (result,) = words
    y = b.outputs("y", config.output_width)
    if len(result) != config.output_width:
        raise SynthesisError(
            f"OFU width mismatch: built {len(result)}, expected "
            f"{config.output_width}"
        )
    for i, net in enumerate(result):
        b.cell("BUF_X2", hint="ybuf", A=net, Y=y[i])
    return b.finish()


def generate_fuse_stage(
    input_width: int,
    shift: int,
    adder_style: str = "ripple",
) -> Module:
    """A single standalone fusion stage (one pair), used by the
    subcircuit library to characterize per-stage OFU delays for the
    searcher's retiming and pipelining decisions.

    Ports: ``lo``/``hi`` input words, ``sub``, output ``y``.
    """
    if input_width < 2 or shift < 1:
        raise SynthesisError("fuse stage needs width >= 2 and shift >= 1")
    b = NetlistBuilder(f"fuse_w{input_width}_s{shift}_{adder_style}")
    lo = b.inputs("lo", input_width)
    hi = b.inputs("hi", input_width)
    sub = b.inputs("sub")[0]
    out_w = input_width + shift + 1
    y = b.outputs("y", out_w)
    result = _fuse_pair(b, lo, hi, shift, sub, adder_style)
    for i, net in enumerate(result):
        b.cell("BUF_X2", hint="ybuf", A=net, Y=y[i])
    return b.finish()


def _fuse_pair(
    b: NetlistBuilder,
    lo: Sequence[str],
    hi: Sequence[str],
    shift: int,
    sub_ctl: str,
    adder_style: str = "ripple",
) -> List[str]:
    """``y = lo + (sub ? -hi : hi) * 2^shift`` in two's complement.

    Input words are ``w`` bits; the result is ``w + shift + 1`` bits.
    ``-(hi << shift) == (~hi << shift) + (1 << shift)``, so the low
    ``shift`` result bits copy ``lo`` untouched and the two's-complement
    +1 enters the adder chain as the carry-in at bit ``shift``.
    """
    if len(lo) != len(hi):
        raise SynthesisError("fuse pair width mismatch")
    w = len(lo)
    out_w = w + shift + 1
    lo_ext = list(lo) + [lo[-1]] * (out_w - w)          # sign extend
    hi_ext = list(hi) + [hi[-1]] * (out_w - w - shift)  # sign extend

    a_bits = lo_ext[shift:]
    c_bits = [b.xor2(hi_ext[i], sub_ctl) for i in range(out_w - shift)]
    if adder_style == "csel":
        sums = _carry_select_add(b, a_bits, c_bits, sub_ctl)
    else:
        sums = []
        carry = sub_ctl
        for i in range(len(a_bits)):
            s, carry = b.full_adder(a_bits[i], c_bits[i], carry)
            sums.append(s)
    return list(lo_ext[:shift]) + sums


#: Carry-select block size (bits per ripple block).
_CSEL_BLOCK = 4


def _carry_select_add(
    b: NetlistBuilder,
    a: Sequence[str],
    c: Sequence[str],
    carry_in: str,
) -> List[str]:
    """Carry-select adder: each 4-bit block computes both carry
    hypotheses in parallel; block carries hop through one mux each, so
    the carry chain is ~4 FA + N/4 mux instead of N FA."""
    width = len(a)
    out: List[str] = []
    carry = carry_in
    zero = b.const0()
    one = b.const1()
    for base in range(0, width, _CSEL_BLOCK):
        block = range(base, min(base + _CSEL_BLOCK, width))
        if base == 0:
            # First block rides the true carry-in directly.
            for i in block:
                s, carry = b.full_adder(a[i], c[i], carry)
                out.append(s)
            continue
        sums0: List[str] = []
        sums1: List[str] = []
        c0, c1 = zero, one
        for i in block:
            s0, c0 = b.full_adder(a[i], c[i], c0)
            s1, c1 = b.full_adder(a[i], c[i], c1)
            sums0.append(s0)
            sums1.append(s1)
        for s0, s1 in zip(sums0, sums1):
            out.append(b.mux2(s0, s1, carry))
        carry = b.mux2(c0, c1, carry)
    return out
