"""Macro architecture description — the searcher's decision variables.

A :class:`MacroArchitecture` pins down every discrete implementation
choice the multi-spec-oriented searcher can make for a given
:class:`~repro.spec.MacroSpec`: which memory cell, which
multiplier/multiplexer style, which adder-tree family and FA/compressor
mix, whether columns are split, where pipeline registers sit, and how
strongly the word lines are driven.  The RTL generators consume an
architecture and emit netlists; the subcircuit library prices one
without building it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import SpecificationError
from .spec import MacroSpec

#: Memory-cell options (paper Section II.B "Memory Cell").
MEMCELLS = ("DCIM6T", "DCIM8T", "DCIM12T", "RRAM_HYB")
#: Multiplier/multiplexer options (paper Section II.B, three styles).
MULT_STYLES = ("tg_nor", "oai22", "pg_1t")
#: Adder-tree families (paper Section III.B / Fig. 4).
TREE_STYLES = ("rca", "cmp42", "mixed")
#: WL driver strengths available in the library.
DRIVER_STRENGTHS = (2, 4, 8)


@dataclass(frozen=True)
class MacroArchitecture:
    """One fully-specified implementation point for a macro.

    Attributes
    ----------
    memcell:
        Bitcell used for the compute rows (storage banks always use the
        compact ``SRAM6T``).
    mult_style:
        ``tg_nor`` (transmission gate + NOR), ``oai22`` (fused, MCR<=2
        only) or ``pg_1t`` (1T passing gate).
    tree_style / tree_fa_levels / carry_reorder:
        Adder-tree family; for ``mixed``, the number of final reduction
        levels implemented with full adders instead of 4-2 compressors;
        whether late-arriving bits are steered to fast compressor ports.
    column_split:
        1 (no split), 2 or 4 — splits each column's accumulation into
        ``column_split`` sub-trees with a registered combiner (the
        searcher's big hammer for timing).
    reg_after_tree / reg_after_sna:
        Pipeline registers between adder tree and S&A, and between S&A
        and OFU.  The searcher removes them when the merged path still
        meets timing (paper Fig. 5 "merge registers").
    ofu_pipeline:
        Extra pipeline stages inside the OFU (0, 1 or 2).
    ofu_retimed:
        Whether OFU front-end combinational logic was retimed into the
        S&A stage.
    ofu_csel:
        Use carry-select adders in the OFU fusion stages (the SCL's
        "faster adder" for the output path): shorter carry chains at an
        area/power premium.
    driver_strength:
        BUF_X drive (2/4/8) of the word-line drivers.
    vt:
        Threshold-voltage flavor the combinational logic is mapped to
        (see :data:`repro.tech.stdcells.VT_FLAVORS`).  Registers and
        bitcells always stay svt — their costs come from calibrated
        constants the estimator does not re-scale per flavor.
    """

    memcell: str = "DCIM6T"
    mult_style: str = "tg_nor"
    tree_style: str = "mixed"
    tree_fa_levels: int = 0
    carry_reorder: bool = True
    column_split: int = 1
    reg_after_tree: bool = True
    reg_after_sna: bool = True
    ofu_pipeline: int = 0
    ofu_retimed: bool = False
    ofu_csel: bool = False
    driver_strength: int = 4
    vt: str = "svt"

    def __post_init__(self) -> None:
        if self.memcell not in MEMCELLS:
            raise SpecificationError(f"unknown memcell {self.memcell!r}")
        if self.mult_style not in MULT_STYLES:
            raise SpecificationError(f"unknown mult style {self.mult_style!r}")
        if self.tree_style not in TREE_STYLES:
            raise SpecificationError(f"unknown tree style {self.tree_style!r}")
        if self.tree_fa_levels < 0:
            raise SpecificationError("tree_fa_levels must be >= 0")
        if self.tree_style != "mixed" and self.tree_fa_levels:
            raise SpecificationError("tree_fa_levels only meaningful for 'mixed'")
        if self.column_split not in (1, 2, 4):
            raise SpecificationError("column_split must be 1, 2 or 4")
        if self.ofu_pipeline not in (0, 1, 2):
            raise SpecificationError("ofu_pipeline must be 0, 1 or 2")
        if self.driver_strength not in DRIVER_STRENGTHS:
            raise SpecificationError(
                f"driver_strength must be one of {DRIVER_STRENGTHS}"
            )
        from .tech.stdcells import VT_FLAVORS

        if self.vt not in VT_FLAVORS:
            raise SpecificationError(
                f"vt must be one of {tuple(sorted(VT_FLAVORS))}"
            )

    def validate_against(self, spec: MacroSpec) -> None:
        """Check architecture/spec compatibility (e.g. OAI22 MCR limit)."""
        if self.mult_style == "oai22" and spec.mcr > 2:
            raise SpecificationError(
                "OAI22 fused multiplier-multiplexer does not scale beyond MCR=2"
            )
        if self.column_split > 1 and spec.height // self.column_split < 4:
            raise SpecificationError(
                f"column_split {self.column_split} leaves sub-trees below 4 rows"
            )

    def replace(self, **changes: object) -> "MacroArchitecture":
        """A copy with ``changes`` applied, validated like any new
        instance.  Built directly rather than through
        ``dataclasses.replace``, which re-walks the field list on every
        call: the searcher's moves call this for each candidate."""
        unknown = changes.keys() - _ARCH_FIELDS
        if unknown:
            raise TypeError(
                f"MacroArchitecture has no field(s) {', '.join(sorted(unknown))}"
            )
        state = self.__dict__
        new = object.__new__(type(self))
        new.__dict__.update(
            {k: changes[k] if k in changes else state[k] for k in _ARCH_FIELDS}
        )
        new.__post_init__()
        return new

    def to_dict(self) -> dict:
        """JSON-serializable description (``MacroArchitecture(**d)``
        rebuilds it); how compile records carry the selected and
        implemented architectures."""
        return dataclasses.asdict(self)

    def knob_summary(self) -> str:
        parts = [
            self.memcell,
            self.mult_style,
            self.tree_style
            + (f"-fa{self.tree_fa_levels}" if self.tree_style == "mixed" else ""),
            "reord" if self.carry_reorder else "noreord",
            f"split{self.column_split}",
            f"regs{int(self.reg_after_tree)}{int(self.reg_after_sna)}",
            f"ofu{self.ofu_pipeline}{'r' if self.ofu_retimed else ''}"
            + ("c" if self.ofu_csel else ""),
            f"drv{self.driver_strength}",
        ]
        if self.vt != "svt":
            parts.append(self.vt)
        return "/".join(parts)


_ARCH_FIELDS = tuple(f.name for f in dataclasses.fields(MacroArchitecture))
