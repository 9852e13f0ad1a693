"""Standard-cell and custom-cell library for the 40 nm-class process.

The paper builds DCIM macros from (a) ordinary standard cells, (b) custom
cells — SRAM bitcells, multiplier/multiplexer structures — that are
characterized and wrapped with LEF/LIB views so "they become standard
cells for integration into the digital flow" (Section III.B).  This
module provides both kinds.

Each :class:`Cell` carries

* geometry (``area_um2``, ``width_um``, ``height_um``) for placement;
* per-input-pin capacitance (fF) for loading upstream drivers;
* per-arc linear delay models ``d = d0 + r * C_load`` (ns, with r in
  kOhm and C in fF so ``r * C`` is ps — converted inside);
* leakage power (nW) and internal switching energy per output toggle
  (fJ);
* for combinational cells, one Liberty ``function`` expression per
  output pin (``pin_functions``) — the one spelling of the cell's
  logic.  It is parsed once per distinct expression set into
  :attr:`Cell.truth_table`, which the simulator, activity propagation,
  the Vt-swap check and the SCL fingerprint all read.

Per-pin arcs matter: the paper's CSA optimization exploits the fact that
a compressor's carry output is faster than its sum output and reorders
cell connections accordingly (Fig. 4), which only a pin-accurate model
can express.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from typing import Dict, Mapping, Optional, Tuple

from ..errors import LibraryError

#: One row per input assignment, in :func:`input_assignments` order;
#: row ``r`` holds the output bits in the cell's ``outputs`` order.
TruthTable = Tuple[Tuple[int, ...], ...]


# --------------------------------------------------------------------------
# Vt flavors and the drive ladder.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VtFlavor:
    """One threshold-voltage flavor of the process.

    ``delay_factor`` scales every timing quantity (intrinsic delay,
    drive resistance, clk->q, setup, hold) relative to the standard-Vt
    cell; ``leakage_factor`` scales subthreshold leakage — the classic
    exponential Vt/leakage trade collapsed to per-flavor constants, the
    same shape multi-Vt foundry kits expose.  ``cap_factor`` captures
    the small gate-cap change from the implant/channel tweaks.
    """

    name: str
    delay_factor: float
    leakage_factor: float
    cap_factor: float = 1.0


#: The four flavors of a typical 40 nm multi-Vt kit.
VT_FLAVORS: Dict[str, VtFlavor] = {
    "ulvt": VtFlavor("ulvt", 0.80, 4.5, 1.05),
    "lvt": VtFlavor("lvt", 0.90, 2.2, 1.02),
    "svt": VtFlavor("svt", 1.00, 1.0, 1.00),
    "hvt": VtFlavor("hvt", 1.18, 0.35, 0.97),
}

#: Flavors ordered slow/low-leakage -> fast/leaky.
VT_ORDER: Tuple[str, ...] = ("hvt", "svt", "lvt", "ulvt")

#: Drive strengths every laddered family is populated at.
DRIVE_LADDER: Tuple[int, ...] = (1, 2, 4, 6, 8, 12)

_VARIANT_RE = re.compile(r"^([A-Z][A-Z0-9]*?)(?:_(ULVT|LVT|HVT))?_X(\d+)$")


def parse_variant_name(name: str) -> Optional[Tuple[str, str, int]]:
    """Split ``BASE[_VT]_X<drive>`` into (base, vt, drive), or None for
    cells outside the ladder naming scheme (memcells, TIE cells)."""
    m = _VARIANT_RE.match(name)
    if m is None:
        return None
    base, vt, drive = m.group(1), m.group(2), int(m.group(3))
    return base, (vt.lower() if vt else "svt"), drive


def variant_name(base: str, vt: str, drive: int) -> str:
    """Canonical cell name for a (base family, vt, drive) variant."""
    infix = "" if vt == "svt" else f"_{vt.upper()}"
    return f"{base}{infix}_X{drive}"


@dataclass(frozen=True)
class TimingArc:
    """Propagation arc from ``input_pin`` to ``output_pin``.

    ``d0_ns`` is the unloaded (intrinsic) delay; ``r_kohm`` the effective
    drive resistance seen when charging the output load
    (:func:`repro.tech.characterization.arc_delay_ns` is the delay
    model every analysis uses).
    """

    input_pin: str
    output_pin: str
    d0_ns: float
    r_kohm: float


@dataclass(frozen=True)
class Cell:
    """One library cell (standard or custom)."""

    name: str
    area_um2: float
    input_caps_ff: Dict[str, float]
    outputs: Tuple[str, ...]
    arcs: Tuple[TimingArc, ...]
    leakage_nw: float
    internal_energy_fj: Dict[str, float]
    is_sequential: bool = False
    clk_pin: str = ""
    clk_to_q_ns: float = 0.0
    setup_ns: float = 0.0
    hold_ns: float = 0.0
    is_memory: bool = False
    width_um: float = 0.0
    height_um: float = 0.0
    tags: Tuple[str, ...] = field(default_factory=tuple)
    #: Threshold-voltage flavor (see :data:`VT_FLAVORS`).
    vt: str = "svt"
    #: Drive strength on the family ladder (the ``_X<n>`` suffix).
    drive: int = 1
    #: Per-output-pin boolean expressions (Liberty ``function`` attrs)
    #: over the input pins: the cell's logic, and what a .lib round
    #: trip carries.  Empty for cells without logic (memories, flops).
    pin_functions: Dict[str, str] = field(default_factory=dict)
    #: ``pin_functions`` evaluated over every input assignment (None
    #: when there are none), set when the cell is built.
    truth_table: Optional[TruthTable] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "truth_table", _cell_table(self))
        if self.vt not in VT_FLAVORS:
            raise LibraryError(f"{self.name}: unknown vt flavor {self.vt!r}")
        for arc in self.arcs:
            if arc.output_pin not in self.outputs:
                raise LibraryError(
                    f"{self.name}: arc output {arc.output_pin!r} not a cell output"
                )
            if not self.is_sequential and arc.input_pin not in self.input_caps_ff:
                raise LibraryError(
                    f"{self.name}: arc input {arc.input_pin!r} not a cell input"
                )

    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self.input_caps_ff)

    def arcs_to(self, output_pin: str) -> Tuple[TimingArc, ...]:
        return tuple(a for a in self.arcs if a.output_pin == output_pin)

    def worst_arc_to(self, output_pin: str) -> TimingArc:
        arcs = self.arcs_to(output_pin)
        if not arcs:
            raise LibraryError(f"{self.name}: no arcs drive {output_pin!r}")
        return max(arcs, key=lambda a: a.d0_ns)

    def evaluate(self, pins: Mapping[str, int]) -> Dict[str, int]:
        """Output values for one input assignment (a truth-table row)."""
        if self.truth_table is None:
            raise LibraryError(f"{self.name} has no logic function")
        row = 0
        for pin in self.input_caps_ff:
            row = (row << 1) | (1 if pins[pin] else 0)
        return dict(zip(self.outputs, self.truth_table[row]))


def _full_arcs(
    inputs: Tuple[str, ...], output: str, d0: float, r: float
) -> Tuple[TimingArc, ...]:
    return tuple(TimingArc(i, output, d0, r) for i in inputs)


def derive_variant(
    reference: Cell, vt: str, drive: Optional[int] = None
) -> Cell:
    """Scale ``reference`` to another (vt, drive) point of its family.

    Scaling laws (k = drive ratio, f = flavor-factor ratio):

    * delays (``d0``, ``r``, clk->q, setup, hold) x ``f.delay_factor``;
      ``r`` additionally /k (wider devices drive harder);
    * input caps x k x ``f.cap_factor``;
    * area x (0.6 + 0.4 k) — shared well/rail overhead doesn't scale;
    * leakage x k x ``f.leakage_factor``;
    * internal energy x (0.5 + 0.5 k).

    Monotonicity across flavors at a fixed drive is guaranteed by
    construction because every flavor is derived from the *same*
    reference cell.
    """
    parsed = parse_variant_name(reference.name)
    if parsed is None:
        raise LibraryError(
            f"{reference.name}: not a laddered cell, cannot derive variants"
        )
    base, _, _ = parsed
    flavor = VT_FLAVORS.get(vt)
    if flavor is None:
        raise LibraryError(f"unknown vt flavor {vt!r}")
    if drive is None:
        drive = reference.drive
    if drive < 1:
        raise LibraryError(f"{reference.name}: invalid drive {drive}")
    ref_flavor = VT_FLAVORS[reference.vt]
    dly = flavor.delay_factor / ref_flavor.delay_factor
    lkg = flavor.leakage_factor / ref_flavor.leakage_factor
    cap = flavor.cap_factor / ref_flavor.cap_factor
    k = drive / reference.drive
    area = reference.area_um2 * (0.6 + 0.4 * k)
    height = reference.height_um or 1.8
    tags = reference.tags
    if "variant" not in tags:
        tags = tags + ("variant",)
    return Cell(
        name=variant_name(base, vt, drive),
        area_um2=area,
        input_caps_ff={
            p: c * k * cap for p, c in reference.input_caps_ff.items()
        },
        outputs=reference.outputs,
        arcs=tuple(
            TimingArc(a.input_pin, a.output_pin, a.d0_ns * dly, a.r_kohm * dly / k)
            for a in reference.arcs
        ),
        leakage_nw=reference.leakage_nw * k * lkg,
        internal_energy_fj={
            p: e * (0.5 + 0.5 * k)
            for p, e in reference.internal_energy_fj.items()
        },
        is_sequential=reference.is_sequential,
        clk_pin=reference.clk_pin,
        clk_to_q_ns=reference.clk_to_q_ns * dly,
        setup_ns=reference.setup_ns * dly,
        hold_ns=reference.hold_ns * dly,
        is_memory=reference.is_memory,
        width_um=area / height,
        height_um=height,
        tags=tags,
        vt=vt,
        drive=drive,
        pin_functions=dict(reference.pin_functions),
    )


# --------------------------------------------------------------------------
# Logic: Liberty function expressions parsed into truth tables.
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def input_assignments(k: int) -> Tuple[Tuple[int, ...], ...]:
    """The 2^k assignments of ``k`` input pins in ``itertools.product``
    order (pin 0 the most significant bit of the row index): the row
    order of every :data:`TruthTable`."""
    return tuple(product((0, 1), repeat=k))


_EXPR_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\[\]]*|[01]|[!&|^()'*+]")

#: Parsed tables by (input pins, per-output expressions): every
#: (vt, drive) variant of a family shares its anchor's parse.
_TABLES: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], TruthTable] = {}


def _cell_table(cell: Cell) -> Optional[TruthTable]:
    if not cell.pin_functions:
        return None
    exprs = tuple(cell.pin_functions.get(pin) for pin in cell.outputs)
    if None in exprs or len(cell.pin_functions) != len(exprs):
        raise LibraryError(
            f"{cell.name}: functions for pins {sorted(cell.pin_functions)} "
            f"do not match outputs {list(cell.outputs)}"
        )
    key = (cell.inputs, exprs)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _parse_table(cell.name, *key)
    return table


def _parse_table(
    name: str, inputs: Tuple[str, ...], exprs: Tuple[str, ...]
) -> TruthTable:
    rows = 1 << len(inputs)
    pin_cols = dict.fromkeys(inputs, 0)
    for r, assignment in enumerate(input_assignments(len(inputs))):
        for pin, bit in zip(inputs, assignment):
            pin_cols[pin] |= bit << r
    cols = [_parse_expr(name, expr, pin_cols, (1 << rows) - 1) for expr in exprs]
    return tuple(tuple((col >> r) & 1 for col in cols) for r in range(rows))


def _parse_expr(name: str, expr: str, pin_cols: Dict[str, int], ones: int) -> int:
    """Evaluate one expression over all input assignments at once: every
    value is a bit column (bit ``r`` = the value under assignment ``r``).

    Grammar, precedence low -> high: ``| +`` (or), ``^`` (xor), ``& *``
    (and), prefix ``!`` and postfix ``'`` (not), parentheses, input
    pins and the constants ``0``/``1``.
    """
    tokens = _EXPR_TOKEN_RE.findall(expr)
    if "".join(tokens) != "".join(expr.split()):
        raise LibraryError(f"{name}: bad function expression {expr!r}")
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def binary(ops: Tuple[str, ...], operand, combine):
        def parse() -> int:
            value = operand()
            while peek() in ops:
                take()
                value = combine(value, operand())
            return value

        return parse

    def unary() -> int:
        if peek() is None:
            raise LibraryError(f"{name}: truncated function expression {expr!r}")
        tok = take()
        if tok == "!":
            value = ones ^ unary()
        elif tok == "(":
            value = parse_or()
            if peek() != ")":
                raise LibraryError(f"{name}: unbalanced parens in {expr!r}")
            take()
        elif tok in ("0", "1"):
            value = ones if tok == "1" else 0
        elif tok in pin_cols:
            value = pin_cols[tok]
        elif tok[0].isalpha() or tok[0] == "_":
            raise LibraryError(
                f"{name}: function {expr!r} names {tok!r}, which is not an input pin"
            )
        else:
            raise LibraryError(f"{name}: bad function expression {expr!r}")
        while peek() == "'":
            take()
            value ^= ones
        return value

    parse_and = binary(("&", "*"), unary, lambda a, b: a & b)
    parse_xor = binary(("^",), parse_and, lambda a, b: a ^ b)
    parse_or = binary(("|", "+"), parse_xor, lambda a, b: a | b)
    value = parse_or()
    if pos != len(tokens):
        raise LibraryError(f"{name}: trailing tokens in function expression {expr!r}")
    return value


# --------------------------------------------------------------------------
# Library construction.
# --------------------------------------------------------------------------


def _make_cells() -> Dict[str, Cell]:
    cells: Dict[str, Cell] = {}

    def add(cell: Cell) -> None:
        if cell.name in cells:
            raise LibraryError(f"duplicate cell {cell.name}")
        cells[cell.name] = cell

    def simple(
        name: str,
        area: float,
        cap: float,
        d0: float,
        r: float,
        leak: float,
        e_int: float,
        n_inputs: int,
        expr: str,
        tags: Tuple[str, ...] = (),
        caps: Optional[Dict[str, float]] = None,
    ) -> Cell:
        pin_names = tuple("ABCD"[:n_inputs])
        input_caps = caps or {p: cap for p in pin_names}
        return Cell(
            name=name,
            area_um2=area,
            input_caps_ff=input_caps,
            outputs=("Y",),
            arcs=_full_arcs(tuple(input_caps), "Y", d0, r),
            leakage_nw=leak,
            internal_energy_fj={"Y": e_int},
            width_um=area / 1.8,
            height_um=1.8,
            tags=tags,
            pin_functions={"Y": expr},
        )

    # Inverters/buffers at three drive strengths.
    add(simple("INV_X1", 0.8, 0.9, 0.010, 1.40, 1.5, 0.40, 1, "!A"))
    add(simple("INV_X2", 1.1, 1.8, 0.010, 0.70, 3.0, 0.70, 1, "!A"))
    add(simple("INV_X4", 1.8, 3.6, 0.011, 0.35, 6.0, 1.30, 1, "!A"))
    add(simple("BUF_X2", 1.6, 1.0, 0.022, 0.70, 3.2, 0.90, 1, "A"))
    add(simple("BUF_X4", 2.4, 1.1, 0.024, 0.35, 5.5, 1.60, 1, "A"))
    add(simple("BUF_X8", 3.8, 1.2, 0.026, 0.18, 9.5, 2.90, 1, "A"))

    # Basic combinational gates.
    add(simple("NAND2_X1", 1.2, 1.1, 0.014, 1.60, 2.2, 0.60, 2, "!(A & B)"))
    add(simple("NAND2_X2", 1.7, 2.2, 0.014, 0.80, 4.2, 1.05, 2, "!(A & B)"))
    add(simple("NOR2_X1", 1.2, 1.1, 0.016, 1.80, 2.0, 0.60, 2, "!(A | B)"))
    add(simple("AND2_X1", 1.5, 1.0, 0.022, 1.50, 2.6, 0.75, 2, "A & B"))
    add(simple("OR2_X1", 1.5, 1.0, 0.024, 1.60, 2.6, 0.80, 2, "A | B"))
    add(simple("XOR2_X1", 2.6, 1.9, 0.030, 1.70, 3.5, 1.20, 2, "A ^ B"))
    add(simple("XNOR2_X1", 2.6, 1.9, 0.030, 1.70, 3.5, 1.20, 2, "!(A ^ B)"))
    add(simple("AOI22_X1", 1.9, 1.2, 0.020, 1.90, 2.8, 0.85, 4,
               "!((A & B) | (C & D))"))
    add(
        simple(
            "OAI22_X1",
            1.9,
            1.2,
            0.020,
            1.90,
            2.8,
            0.85,
            4,
            "!((A | B) & (C | D))",
            tags=("mult_mux",),
        )
    )
    add(simple("TIE0", 0.4, 0.0, 0.0, 0.0, 0.2, 0.0, 0, "0"))
    add(simple("TIE1", 0.4, 0.0, 0.0, 0.0, 0.2, 0.0, 0, "1"))

    # Transmission-gate mux (paper option 3 for MCR selection).
    add(
        Cell(
            name="TGMUX2_X1",
            area_um2=0.9,
            input_caps_ff={"D0": 1.0, "D1": 1.0, "S": 1.8},
            outputs=("Y",),
            arcs=(
                TimingArc("D0", "Y", 0.012, 1.60),
                TimingArc("D1", "Y", 0.012, 1.60),
                TimingArc("S", "Y", 0.018, 1.60),
            ),
            leakage_nw=1.6,
            internal_energy_fj={"Y": 0.50},
            width_um=0.5,
            height_um=1.8,
            tags=("mult_mux",),
            pin_functions={"Y": "(D1 & S) | (D0 & !S)"},
        )
    )
    # Full-CMOS mux for datapath use.
    add(
        Cell(
            name="MUX2_X1",
            area_um2=2.2,
            input_caps_ff={"D0": 1.0, "D1": 1.0, "S": 1.6},
            outputs=("Y",),
            arcs=(
                TimingArc("D0", "Y", 0.020, 1.50),
                TimingArc("D1", "Y", 0.020, 1.50),
                TimingArc("S", "Y", 0.026, 1.50),
            ),
            leakage_nw=3.0,
            internal_energy_fj={"Y": 0.95},
            width_um=2.2 / 1.8,
            height_um=1.8,
            pin_functions={"Y": "(D1 & S) | (D0 & !S)"},
        )
    )
    # 1T passing-gate mux (AutoDCIM option 1): tiny, but the Vt drop makes
    # it slow and power hungry.
    add(
        Cell(
            name="PGMUX2_X1",
            area_um2=0.35,
            input_caps_ff={"D0": 0.8, "D1": 0.8, "S": 1.2},
            outputs=("Y",),
            arcs=(
                TimingArc("D0", "Y", 0.035, 3.50),
                TimingArc("D1", "Y", 0.035, 3.50),
                TimingArc("S", "Y", 0.040, 3.50),
            ),
            leakage_nw=2.4,
            internal_energy_fj={"Y": 0.90},
            width_um=0.2,
            height_um=1.8,
            tags=("mult_mux",),
            pin_functions={"Y": "(D1 & S) | (D0 & !S)"},
        )
    )

    # Adder cells.
    add(
        Cell(
            name="HA_X1",
            area_um2=3.4,
            input_caps_ff={"A": 1.3, "B": 1.3},
            outputs=("S", "CO"),
            arcs=(
                TimingArc("A", "S", 0.032, 1.70),
                TimingArc("B", "S", 0.032, 1.70),
                TimingArc("A", "CO", 0.022, 1.50),
                TimingArc("B", "CO", 0.022, 1.50),
            ),
            leakage_nw=5.0,
            internal_energy_fj={"S": 1.40, "CO": 0.90},
            width_um=3.4 / 1.8,
            height_um=1.8,
            tags=("adder",),
            pin_functions={"S": "A ^ B", "CO": "A & B"},
        )
    )
    add(
        Cell(
            name="FA_X1",
            area_um2=6.8,
            input_caps_ff={"A": 1.6, "B": 1.6, "CI": 1.2},
            outputs=("S", "CO"),
            arcs=(
                TimingArc("A", "S", 0.075, 1.70),
                TimingArc("B", "S", 0.075, 1.70),
                TimingArc("CI", "S", 0.055, 1.70),
                TimingArc("A", "CO", 0.052, 1.50),
                TimingArc("B", "CO", 0.052, 1.50),
                TimingArc("CI", "CO", 0.038, 1.50),
            ),
            leakage_nw=9.0,
            internal_energy_fj={"S": 2.80, "CO": 1.90},
            width_um=6.8 / 1.8,
            height_um=1.8,
            tags=("adder",),
            pin_functions={
                "S": "(A ^ B) ^ CI",
                "CO": "(A & B) | (CI & (A ^ B))",
            },
        )
    )
    # 4-2 compressor: smaller and lower-energy than the two FAs it
    # replaces (6.8*2 = 13.6 um^2, 9.4 fJ), but its sum path is slower
    # than one FA — exactly the trade the mixed CSA exploits.  Used as a
    # 5-3 carry-save counter (paper [14]): sum S (weight 1), carry CY
    # and horizontal carry-out CO (weight 2 each); CO is the majority
    # of A..C only, which keeps the horizontal chain from rippling.
    add(
        Cell(
            name="CMP42_X1",
            area_um2=10.5,
            input_caps_ff={"A": 1.5, "B": 1.5, "C": 1.5, "D": 1.4, "CI": 1.2},
            outputs=("S", "CY", "CO"),
            arcs=(
                TimingArc("A", "S", 0.100, 1.70),
                TimingArc("B", "S", 0.100, 1.70),
                TimingArc("C", "S", 0.098, 1.70),
                TimingArc("D", "S", 0.072, 1.70),
                TimingArc("CI", "S", 0.058, 1.70),
                TimingArc("A", "CY", 0.080, 1.50),
                TimingArc("B", "CY", 0.080, 1.50),
                TimingArc("C", "CY", 0.078, 1.50),
                TimingArc("D", "CY", 0.055, 1.50),
                TimingArc("CI", "CY", 0.045, 1.50),
                TimingArc("A", "CO", 0.060, 1.50),
                TimingArc("B", "CO", 0.060, 1.50),
                TimingArc("C", "CO", 0.058, 1.50),
            ),
            leakage_nw=13.0,
            internal_energy_fj={"S": 2.40, "CY": 1.40, "CO": 0.80},
            width_um=10.5 / 1.8,
            height_um=1.8,
            tags=("adder", "compressor"),
            pin_functions={
                "S": "((A ^ B) ^ C) ^ (D ^ CI)",
                "CY": "(((A ^ B) ^ C) & D) | (CI & (((A ^ B) ^ C) ^ D))",
                "CO": "(A & B) | (A & C) | (B & C)",
            },
        )
    )

    # Sequential cells.
    add(
        Cell(
            name="DFF_X1",
            area_um2=4.6,
            input_caps_ff={"D": 1.0, "CK": 0.9},
            outputs=("Q",),
            arcs=(TimingArc("CK", "Q", 0.085, 1.40),),
            leakage_nw=6.0,
            internal_energy_fj={"Q": 2.20},
            is_sequential=True,
            clk_pin="CK",
            clk_to_q_ns=0.085,
            setup_ns=0.045,
            hold_ns=0.010,
            width_um=4.6 / 1.8,
            height_um=1.8,
        )
    )
    add(
        Cell(
            name="LATCH_X1",
            area_um2=3.2,
            input_caps_ff={"D": 1.0, "G": 0.9},
            outputs=("Q",),
            arcs=(TimingArc("G", "Q", 0.060, 1.50),),
            leakage_nw=4.2,
            internal_energy_fj={"Q": 1.60},
            is_sequential=True,
            clk_pin="G",
            clk_to_q_ns=0.060,
            setup_ns=0.030,
            hold_ns=0.010,
            width_um=3.2 / 1.8,
            height_um=1.8,
        )
    )

    # Custom memory cells (characterized like standard cells, Fig. 3).
    def memcell(
        name: str, area: float, w: float, h: float, leak: float, e_read: float
    ) -> Cell:
        return Cell(
            name=name,
            area_um2=area,
            input_caps_ff={"WL": 0.25, "BL": 0.30},
            outputs=("RD",),
            arcs=(TimingArc("WL", "RD", 0.030, 2.5),),
            leakage_nw=leak,
            internal_energy_fj={"RD": e_read},
            is_memory=True,
            width_um=w,
            height_um=h,
            tags=("memcell",),
        )

    # 6T + read port: the default compute bitcell.
    cells["DCIM6T"] = memcell("DCIM6T", 1.05, 1.05, 1.0, 0.45, 0.22)
    # 8T D-latch cell: robust read/write (paper [3]), bigger.
    cells["DCIM8T"] = memcell("DCIM8T", 1.45, 1.45, 1.0, 0.60, 0.20)
    # 12T OAI-gate cell: design-feasibility option (paper [10]).
    cells["DCIM12T"] = memcell("DCIM12T", 2.10, 2.10, 1.0, 0.85, 0.26)
    # Plain 6T storage cell used for extra MCR banks.
    cells["SRAM6T"] = memcell("SRAM6T", 0.55, 0.55, 1.0, 0.30, 0.15)
    # Hybrid ReRAM+SRAM compute cell (papers [11]-[13]): ReRAM stores the
    # weight (near-zero leakage), a small SRAM assist reads it for MAC.
    # Denser than the 6T compute cell but slower and costlier to read.
    cells["RRAM_HYB"] = memcell("RRAM_HYB", 0.40, 0.40, 1.0, 0.02, 0.35)
    rram = cells["RRAM_HYB"]
    cells["RRAM_HYB"] = Cell(
        name=rram.name,
        area_um2=rram.area_um2,
        input_caps_ff=rram.input_caps_ff,
        outputs=rram.outputs,
        arcs=(TimingArc("WL", "RD", 0.055, 3.2),),
        leakage_nw=rram.leakage_nw,
        internal_energy_fj=rram.internal_energy_fj,
        is_memory=True,
        width_um=rram.width_um,
        height_um=rram.height_um,
        tags=("memcell",),
    )

    # Stamp the (vt, drive) coordinates the cell names already encode so
    # the handcrafted cells sit on the same ladder as derived variants.
    for name, cell in list(cells.items()):
        parsed = parse_variant_name(name)
        if parsed is not None:
            _, vt, drive = parsed
            if cell.vt != vt or cell.drive != drive:
                cells[name] = replace(cell, vt=vt, drive=drive)

    _expand_variants(cells)
    return cells


#: Families populated across the full Vt x drive grid; the anchor is the
#: handcrafted cell drive-scaling starts from.
_DRIVE_ANCHORS: Tuple[str, ...] = (
    "INV_X1",
    "BUF_X2",
    "NAND2_X1",
    "NOR2_X1",
    "AND2_X1",
    "OR2_X1",
    "XOR2_X1",
    "XNOR2_X1",
    "AOI22_X1",
    "OAI22_X1",
)

#: Complex/sequential cells that get Vt flavors at their native drive
#: only (resizing a custom compressor or flop layout is a relayout, not
#: a scaling law).
_VT_ONLY_ANCHORS: Tuple[str, ...] = (
    "TGMUX2_X1",
    "MUX2_X1",
    "PGMUX2_X1",
    "HA_X1",
    "FA_X1",
    "CMP42_X1",
    "DFF_X1",
    "LATCH_X1",
)


def _expand_variants(cells: Dict[str, Cell]) -> None:
    """Populate the Vt x drive grid around the handcrafted cells.

    Handcrafted cells are never replaced: where one exists at a grid
    point it *is* that point, and the other Vt flavors at the same drive
    are derived from it — which keeps the flavor ordering (delay up,
    leakage down toward hvt) exact at every drive even where the
    handcrafted ladder deviates slightly from the pure scaling laws.
    """
    for anchor_name in _DRIVE_ANCHORS:
        anchor = cells[anchor_name]
        base = parse_variant_name(anchor_name)[0]
        for drive in DRIVE_LADDER:
            ref_name = variant_name(base, "svt", drive)
            ref = cells.get(ref_name)
            if ref is None:
                ref = derive_variant(anchor, "svt", drive)
                cells[ref.name] = ref
            for vt in VT_ORDER:
                if vt == "svt":
                    continue
                name = variant_name(base, vt, drive)
                if name not in cells:
                    cells[name] = derive_variant(ref, vt, drive)
    for anchor_name in _VT_ONLY_ANCHORS:
        ref = cells[anchor_name]
        base, _, drive = parse_variant_name(anchor_name)
        for vt in VT_ORDER:
            if vt == "svt":
                continue
            name = variant_name(base, vt, drive)
            if name not in cells:
                cells[name] = derive_variant(ref, vt, drive)


class StdCellLibrary:
    """Container with name-based lookup over the calibrated cell set."""

    def __init__(self, cells: Optional[Dict[str, Cell]] = None) -> None:
        self._cells = dict(cells) if cells is not None else _make_cells()

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self):
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._cells))

    def cell(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise LibraryError(f"unknown cell {name!r}") from None


_DEFAULT: Optional[StdCellLibrary] = None
_SINGLE_VT: Optional[StdCellLibrary] = None


def default_library() -> StdCellLibrary:
    """Shared singleton of the calibrated library (cells are immutable)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = StdCellLibrary()
    return _DEFAULT


def single_vt_library() -> StdCellLibrary:
    """The pre-expansion library: handcrafted cells only, no derived
    (vt, drive) variants.  Baseline for the multi-Vt perf guard and for
    A/B comparisons against the full grid."""
    global _SINGLE_VT
    if _SINGLE_VT is None:
        _SINGLE_VT = StdCellLibrary(
            {
                c.name: c
                for c in default_library()
                if "variant" not in c.tags
            }
        )
    return _SINGLE_VT
