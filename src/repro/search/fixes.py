"""Timing-fix and fine-tuning moves of the heuristic search.

Algorithm 1 (paper Section III.C) repairs timing with an escalating
sequence of architectural moves and then claws back power/area where
slack allows.  Each move here is a pure function
``MacroArchitecture -> Optional[MacroArchitecture]`` returning ``None``
when the move does not apply, so the searcher can compose and log them
(the Fig. 5 ablation counts exactly these applications).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..arch import MacroArchitecture
from ..spec import MacroSpec
from ..tech.stdcells import VT_ORDER

Move = Callable[[MacroSpec, MacroArchitecture], Optional[MacroArchitecture]]


# --------------------------------------------------------------------------
# MAC-path timing fixes (escalation order from the paper).
# --------------------------------------------------------------------------


def faster_adder(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    """Swap in a faster adder tree from the SCL: RCA/compressor designs
    move to the mixed family, mixed designs gain an FA level."""
    if arch.tree_style in ("rca", "cmp42"):
        return arch.replace(tree_style="mixed", tree_fa_levels=1)
    if arch.tree_style == "mixed" and arch.tree_fa_levels < 3:
        return arch.replace(tree_fa_levels=arch.tree_fa_levels + 1)
    return None


def enable_carry_reorder(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    """Steer late bits onto fast compressor ports (free speedup)."""
    if not arch.carry_reorder and arch.tree_style != "rca":
        return arch.replace(carry_reorder=True)
    return None


def insert_tree_register(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    """Retiming on the MAC path: split tree and S&A with a register."""
    if not arch.reg_after_tree:
        return arch.replace(reg_after_tree=True)
    return None


def stronger_driver(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    if arch.driver_strength < 8:
        return arch.replace(driver_strength=arch.driver_strength * 2)
    return None


def split_column(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    """The big hammer: halve the accumulated rows per tree."""
    if arch.column_split < 4 and spec.height // (arch.column_split * 2) >= 4:
        return arch.replace(column_split=arch.column_split * 2)
    return None


MAC_FIXES: Tuple[Tuple[str, Move], ...] = (
    ("faster_adder", faster_adder),
    ("carry_reorder", enable_carry_reorder),
    ("stronger_driver", stronger_driver),
    ("tree_register", insert_tree_register),
    ("column_split", split_column),
)


# --------------------------------------------------------------------------
# OFU-path timing fixes.
# --------------------------------------------------------------------------


def ofu_faster_adder(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    """Swap the fusion adders for the SCL's carry-select variant."""
    if not arch.ofu_csel:
        return arch.replace(ofu_csel=True)
    return None


def ofu_retime(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    """Move the S&A/OFU boundary register past the first fusion stage."""
    if not arch.ofu_retimed:
        return arch.replace(ofu_retimed=True, reg_after_sna=True)
    return None


def ofu_add_pipeline(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    if arch.ofu_pipeline < 2:
        return arch.replace(ofu_pipeline=arch.ofu_pipeline + 1)
    return None


OFU_FIXES: Tuple[Tuple[str, Move], ...] = (
    ("ofu_faster_adder", ofu_faster_adder),
    ("ofu_retime", ofu_retime),
    ("ofu_pipeline", ofu_add_pipeline),
)


# --------------------------------------------------------------------------
# Register merging (applied when slack allows).
# --------------------------------------------------------------------------


def merge_tree_register(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    if arch.reg_after_tree:
        return arch.replace(reg_after_tree=False)
    return None


def merge_sna_register(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    """Drop the OFU input bank — legal only when retiming does not rely
    on it."""
    if arch.reg_after_sna and not arch.ofu_retimed:
        return arch.replace(reg_after_sna=False)
    return None


MERGE_MOVES: Tuple[Tuple[str, Move], ...] = (
    ("merge_tree_register", merge_tree_register),
    ("merge_sna_register", merge_sna_register),
)


# --------------------------------------------------------------------------
# Power/area fine-tuning substitutions.
# --------------------------------------------------------------------------


def cheaper_multiplier(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    """1T passing-gate mux: smallest, slower (area-oriented move)."""
    if arch.mult_style != "pg_1t":
        return arch.replace(mult_style="pg_1t")
    return None


def fused_multiplier(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    if arch.mult_style != "oai22" and spec.mcr <= 2:
        return arch.replace(mult_style="oai22")
    return None


def weaker_driver(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    if arch.driver_strength > 2:
        return arch.replace(driver_strength=arch.driver_strength // 2)
    return None


def calmer_adder(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    """Back off FA substitution toward the power/area-optimal compressor
    tree."""
    if arch.tree_style == "mixed" and arch.tree_fa_levels > 1:
        return arch.replace(tree_fa_levels=arch.tree_fa_levels - 1)
    if arch.tree_style == "mixed" and arch.tree_fa_levels == 1:
        return arch.replace(tree_style="cmp42", tree_fa_levels=0)
    if arch.tree_style == "rca":
        return arch.replace(tree_style="cmp42")
    return None


def unsplit_column(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    if arch.column_split > 1:
        return arch.replace(column_split=arch.column_split // 2)
    return None


def calmer_ofu(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    """Back off the carry-select fusion adders when slack allows."""
    if arch.ofu_csel:
        return arch.replace(ofu_csel=False)
    return None


TUNING_MOVES: Tuple[Tuple[str, Move], ...] = (
    ("cheaper_multiplier", cheaper_multiplier),
    ("fused_multiplier", fused_multiplier),
    ("weaker_driver", weaker_driver),
    ("calmer_adder", calmer_adder),
    ("calmer_ofu", calmer_ofu),
    ("unsplit_column", unsplit_column),
) + MERGE_MOVES


# --------------------------------------------------------------------------
# Vt-flavor moves (multi-Vt search mode).
# --------------------------------------------------------------------------

def lower_vt(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    """Timing fix: step the logic flavor one notch faster (and leakier)
    on the Vt ladder (``VT_ORDER``, slow -> fast) — the cheapest
    structural-change-free speedup."""
    idx = VT_ORDER.index(arch.vt)
    if idx + 1 < len(VT_ORDER):
        return arch.replace(vt=VT_ORDER[idx + 1])
    return None


def raise_vt(
    spec: MacroSpec, arch: MacroArchitecture
) -> Optional[MacroArchitecture]:
    """Tuning move: step the flavor one notch slower to shed leakage
    where slack allows (the searcher re-checks timing as usual)."""
    idx = VT_ORDER.index(arch.vt)
    if idx > 0:
        return arch.replace(vt=VT_ORDER[idx - 1])
    return None


#: Appended to the timing-fix escalation in ``--vt auto`` mode.
VT_TIMING_FIXES: Tuple[Tuple[str, Move], ...] = (("lower_vt", lower_vt),)

#: Appended to the fine-tuning moves in ``--vt auto`` mode.
VT_TUNING_MOVES: Tuple[Tuple[str, Move], ...] = (("raise_vt", raise_vt),)
