"""Adder-tree generators: signed-RCA trees and bit-wise carry-save trees.

Implements the paper's three families (Section III.B, Fig. 4):

* ``rca`` — conventional tree of ripple-carry adders: logically simple
  but long critical path and high switching energy;
* ``cmp42`` — bit-wise carry-save reduction built from 4-2 compressors
  (used as 5-3 carry-save counters) with a final ripple stage: small and
  low-power but the compressor sum path is slow;
* ``mixed`` — the paper's proposal: compressors in the early reduction
  levels, full adders substituted into the last ``fa_levels`` levels to
  shorten the critical path at a power/area premium.

Two further optimizations from Fig. 4 are modelled faithfully:

* *carry reordering* — since a cell's carry output is produced faster
  than its sum output, late-arriving bits are steered onto the fast
  ports (``CI``/``D``) of the next cell;
* the compressors' horizontal carry (``CO``) chains within a reduction
  level, never through it, so levels do not ripple.

All trees sum ``n`` one-bit partial products; the result is the
unsigned count on ``ceil(log2(n+1))`` output bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...errors import SynthesisError
from ..ir import Module, NetlistBuilder

#: Heuristic per-cell arrival increments (in FO4-ish units) used only to
#: decide wiring order when ``carry_reorder`` is on.  STA does the real
#: timing afterwards.
_ARRIVAL_FA_S = 1.00
_ARRIVAL_FA_CO = 0.70
_ARRIVAL_HA_S = 0.45
_ARRIVAL_HA_CO = 0.35
_ARRIVAL_CMP_S = 1.55
_ARRIVAL_CMP_C = 1.25
_ARRIVAL_CMP_CO = 0.80


@dataclass
class TreeStats:
    """Structural summary of a generated tree (used by tests/benches)."""

    n_inputs: int
    style: str
    levels: int = 0
    compressors: int = 0
    full_adders: int = 0
    half_adders: int = 0
    output_width: int = 0
    final_rca_width: int = 0


@dataclass
class _Bit:
    net: str
    arrival: float = 0.0


def tree_output_width(n_inputs: int) -> int:
    """Bits needed for the unsigned sum of ``n_inputs`` one-bit values."""
    return int(math.floor(math.log2(n_inputs))) + 1 if n_inputs > 1 else 1


def generate_adder_tree(
    n_inputs: int,
    style: str = "mixed",
    fa_levels: int = 0,
    carry_reorder: bool = True,
) -> Tuple[Module, TreeStats]:
    """Build an adder-tree module summing ``n_inputs`` one-bit inputs.

    Ports: inputs ``in[0..n-1]``, outputs ``sum[0..W-1]``.
    """
    if n_inputs < 2:
        raise SynthesisError("adder tree needs at least 2 inputs")
    if style not in ("rca", "cmp42", "mixed"):
        raise SynthesisError(f"unknown adder tree style {style!r}")
    if style != "mixed" and fa_levels:
        raise SynthesisError("fa_levels only applies to the mixed style")

    mod_name = f"adder_tree_{style}_{n_inputs}"
    b = NetlistBuilder(mod_name)
    inputs = b.inputs("in", n_inputs)
    stats = TreeStats(n_inputs=n_inputs, style=style)

    if style == "rca":
        sum_bits = _build_rca_tree(b, inputs, stats)
    else:
        sum_bits = _build_csa_tree(b, inputs, style, fa_levels, carry_reorder, stats)

    width = tree_output_width(n_inputs)
    out = b.outputs("sum", width)
    zero = b.const0()
    for i in range(width):
        src = sum_bits[i].net if i < len(sum_bits) else zero
        b.cell("BUF_X2", hint="sumbuf", A=src, Y=out[i])
    stats.output_width = width
    return b.finish(), stats


# ---------------------------------------------------------------------------
# RCA family.
# ---------------------------------------------------------------------------


def _build_rca_tree(
    b: NetlistBuilder, inputs: List[str], stats: TreeStats
) -> List[_Bit]:
    """Binary tree of *signed* ripple-carry adders.

    This is the conventional baseline the paper compares against
    ("multi-stage signed ripple-carry adders", Section II.B): operands
    are treated as two's complement and sign-extended by one bit per
    level, so every level performs a full-width carry-propagate add.
    The sign positions of the 1-bit products are structurally present
    even though they are always zero here — the redundancy is precisely
    why the conventional tree is bigger, slower and hungrier than the
    carry-save designs.
    """
    zero = b.const0()
    words: List[List[_Bit]] = [[_Bit(n), _Bit(zero)] for n in inputs]
    level = 0
    while len(words) > 1:
        level += 1
        next_words: List[List[_Bit]] = []
        for i in range(0, len(words) - 1, 2):
            next_words.append(_rca_add_signed(b, words[i], words[i + 1], stats))
        if len(words) % 2:
            next_words.append(words[-1])
        words = next_words
    stats.levels = level
    return words[0]


def _rca_add_signed(
    b: NetlistBuilder, a: List[_Bit], c: List[_Bit], stats: TreeStats
) -> List[_Bit]:
    """Signed ripple add: both operands sign-extended one position."""
    width = max(len(a), len(c)) + 1
    av = a + [a[-1]] * (width - len(a))
    cv = c + [c[-1]] * (width - len(c))
    out: List[_Bit] = []
    carry: Optional[_Bit] = None
    for i in range(width):
        if carry is None:
            s, co = b.half_adder(av[i].net, cv[i].net)
            stats.half_adders += 1
            arr = max(av[i].arrival, cv[i].arrival)
            out.append(_Bit(s, arr + _ARRIVAL_HA_S))
            carry = _Bit(co, arr + _ARRIVAL_HA_CO)
        else:
            s, co = b.full_adder(av[i].net, cv[i].net, carry.net)
            stats.full_adders += 1
            arr = max(av[i].arrival, cv[i].arrival, carry.arrival)
            out.append(_Bit(s, arr + _ARRIVAL_FA_S))
            carry = _Bit(co, arr + _ARRIVAL_FA_CO)
    return out


# ---------------------------------------------------------------------------
# Carry-save family (4-2 compressors / mixed).
# ---------------------------------------------------------------------------


def _estimate_csa_levels(n: int) -> int:
    levels = 0
    while n > 2:
        n = math.ceil(n / 2)
        levels += 1
    return levels


def _build_csa_tree(
    b: NetlistBuilder,
    inputs: List[str],
    style: str,
    fa_levels: int,
    carry_reorder: bool,
    stats: TreeStats,
) -> List[_Bit]:
    """Wallace-style carry-save reduction to two rows + final ripple."""
    columns: Dict[int, List[_Bit]] = {0: [_Bit(n) for n in inputs]}
    total_levels = _estimate_csa_levels(len(inputs))
    level = 0
    while max(len(bits) for bits in columns.values()) > 2:
        level += 1
        use_fa_only = style == "mixed" and (total_levels - level) < fa_levels
        columns = _reduce_level(b, columns, use_fa_only, carry_reorder, stats)
        if level > 64:  # pragma: no cover - defensive
            raise SynthesisError("CSA reduction failed to converge")
    stats.levels = level
    return _final_ripple(b, columns, carry_reorder, stats)


def _take(bits: List[_Bit], k: int, carry_reorder: bool) -> List[_Bit]:
    """Pop ``k`` bits; with reorder on, earliest-arriving bits are taken
    for the slow ports first and the latest bit is placed last so the
    caller can wire it to the fastest port."""
    if carry_reorder:
        bits.sort(key=lambda x: x.arrival)
    picked = [bits.pop(0) for _ in range(k)]
    return picked


def _reduce_level(
    b: NetlistBuilder,
    columns: Dict[int, List[_Bit]],
    use_fa_only: bool,
    carry_reorder: bool,
    stats: TreeStats,
) -> Dict[int, List[_Bit]]:
    out: Dict[int, List[_Bit]] = {}

    def emit(weight: int, bit: _Bit) -> None:
        out.setdefault(weight, []).append(bit)

    zero = b.const0()
    # Horizontal compressor carries chain LSB -> MSB within this level.
    pending_ci: Dict[int, List[_Bit]] = {}
    for weight in sorted(columns):
        bits = list(columns[weight])
        chain_in = pending_ci.get(weight, [])
        chain_idx = 0
        while len(bits) >= 4 and not use_fa_only:
            group = _take(bits, 4, carry_reorder)
            ci = (
                chain_in[chain_idx]
                if chain_idx < len(chain_in)
                else _Bit(zero, 0.0)
            )
            chain_idx += 1
            s = b.net("cmp_s")
            c = b.net("cmp_c")
            co = b.net("cmp_co")
            if carry_reorder:
                # Fast ports get the late arrivals: D is faster than
                # A/B/C (CI, the fastest, is taken by the chain).
                wired = sorted(group, key=lambda x: x.arrival)
            else:
                wired = group
            b.cell(
                "CMP42_X1",
                hint="cmp",
                A=wired[0].net,
                B=wired[1].net,
                C=wired[2].net,
                D=wired[3].net,
                CI=ci.net,
                S=s,
                CY=c,
                CO=co,
            )
            stats.compressors += 1
            base = max(x.arrival for x in group + [ci])
            emit(weight, _Bit(s, base + _ARRIVAL_CMP_S))
            emit(weight + 1, _Bit(c, base + _ARRIVAL_CMP_C))
            pending_ci.setdefault(weight + 1, []).append(
                _Bit(co, max(x.arrival for x in group[:3]) + _ARRIVAL_CMP_CO)
            )
        # Any unconsumed horizontal carries fall through to the next level.
        for extra in chain_in[chain_idx:]:
            emit(weight, extra)
        while len(bits) >= 3:
            group = _take(bits, 3, carry_reorder)
            s, co = b.net("fa_s"), b.net("fa_co")
            ordered = sorted(group, key=lambda x: x.arrival)
            b.cell(
                "FA_X1",
                hint="fa",
                A=ordered[0].net,
                B=ordered[1].net,
                CI=ordered[2].net,
                S=s,
                CO=co,
            )
            stats.full_adders += 1
            base = max(x.arrival for x in group)
            emit(weight, _Bit(s, base + _ARRIVAL_FA_S))
            emit(weight + 1, _Bit(co, base + _ARRIVAL_FA_CO))
        if len(bits) == 2 and use_fa_only:
            a1, a2 = _take(bits, 2, carry_reorder)
            s, co = b.half_adder(a1.net, a2.net)
            stats.half_adders += 1
            base = max(a1.arrival, a2.arrival)
            emit(weight, _Bit(s, base + _ARRIVAL_HA_S))
            emit(weight + 1, _Bit(co, base + _ARRIVAL_HA_CO))
        else:
            for bit in bits:
                emit(weight, bit)
    # Merge any dangling horizontal carries beyond the processed columns.
    for weight, carries in pending_ci.items():
        consumed = weight in columns
        if not consumed:
            for c in carries:
                out.setdefault(weight, []).append(c)
    return out


def _final_ripple(
    b: NetlistBuilder,
    columns: Dict[int, List[_Bit]],
    carry_reorder: bool,
    stats: TreeStats,
) -> List[_Bit]:
    """Carry-propagate the residual <=2 rows into a single word."""
    result: List[_Bit] = []
    carry: Optional[_Bit] = None
    max_weight = max(columns)
    for weight in range(0, max_weight + 1):
        bits = list(columns.get(weight, []))
        if carry is not None:
            bits.append(carry)
            carry = None
        if carry_reorder:
            bits.sort(key=lambda x: x.arrival)
        if not bits:
            result.append(_Bit(b.const0()))
        elif len(bits) == 1:
            result.append(bits[0])
        elif len(bits) == 2:
            s, co = b.half_adder(bits[0].net, bits[1].net)
            stats.half_adders += 1
            stats.final_rca_width += 1
            base = max(x.arrival for x in bits)
            result.append(_Bit(s, base + _ARRIVAL_HA_S))
            carry = _Bit(co, base + _ARRIVAL_HA_CO)
        elif len(bits) == 3:
            s, co = b.net("fr_s"), b.net("fr_co")
            ordered = sorted(bits, key=lambda x: x.arrival)
            b.cell(
                "FA_X1",
                hint="fa",
                A=ordered[0].net,
                B=ordered[1].net,
                CI=ordered[2].net,
                S=s,
                CO=co,
            )
            stats.full_adders += 1
            stats.final_rca_width += 1
            base = max(x.arrival for x in bits)
            result.append(_Bit(s, base + _ARRIVAL_FA_S))
            carry = _Bit(co, base + _ARRIVAL_FA_CO)
        else:  # pragma: no cover - reduction guarantees <=3
            raise SynthesisError("final ripple saw more than 3 bits")
    if carry is not None:
        result.append(carry)
    return result
