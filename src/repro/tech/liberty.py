"""Liberty (.lib) interchange: lossless export and import of the library.

The paper integrates custom cells into the digital flow by generating
LIB files "providing timing, power, and area information ... compatible
with standard cells" (Section III.D).  This module goes both ways:

* :func:`write_liberty` renders characterized cells as Liberty text —
  library header, cell/pin/timing groups with NLDM
  ``index_1``/``index_2``/``values`` tables, ``function`` attributes,
  ff groups with setup/hold timing, and multi-Vt/drive annotations
  (``threshold_voltage_group``, ``drive_strength``).
* :func:`parse_liberty_cells` parses that grammar back into
  :class:`~repro.tech.stdcells.Cell` objects, so an exported library
  re-imports bit-for-bit (every float is emitted with ``repr`` and the
  linear model is carried verbatim in ``intrinsic_rise`` /
  ``rise_resistance``); :func:`read_liberty_library` wraps the result
  as a :class:`StdCellLibrary` usable as an alternate ``default_scl``
  backend.

Losslessness contract: ``export -> import -> export`` is a fixed point,
and the imported cells reproduce the exact timing/power/area numbers of
the originals (the differential suite in ``tests/test_liberty.py`` and
``tests/test_vt_library.py`` pins both).  Geometry and internal energy
have no standard Liberty home, so they travel in clearly-prefixed
extension attributes (``repro_width_um``, ``repro_height_um``,
``repro_clk_to_q_ns``, ``internal_power_fj``); external libraries
without them fall back to defaults.

External .lib files that only carry NLDM tables (no intrinsic
attributes) are accepted too: the linear model is re-fitted from the
table corners, which is exact for any table this writer produced.

A ``function`` attribute is carried verbatim into
``Cell.pin_functions``, which *is* the cell's logic: building the
cell parses it into a truth table, so an expression that is malformed
or names a pin the cell lacks is refused with a ``LibraryError`` at
import.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..errors import LibraryError
from .characterization import (
    SLEW_SENSITIVITY,
    CharacterizedCell,
    NLDMTable,
    characterize_library,
)
from .process import Process
from .stdcells import (
    Cell,
    StdCellLibrary,
    TimingArc,
    parse_variant_name,
)


def _fmt_floats(values: Iterable[float]) -> str:
    # repr() is the shortest string that round-trips the exact double —
    # the foundation of the lossless export/import contract.
    return ", ".join(repr(float(v)) for v in values)


def _emit_table(name: str, table: NLDMTable, indent: str) -> List[str]:
    lines = [f"{indent}{name} (delay_template) {{"]
    lines.append(f'{indent}  index_1 ("{_fmt_floats(table.slews_ns)}");')
    lines.append(f'{indent}  index_2 ("{_fmt_floats(table.loads_ff)}");')
    rows = ", \\\n".join(
        f'{indent}    "{_fmt_floats(row)}"' for row in table.values
    )
    lines.append(f"{indent}  values ( \\\n{rows});")
    lines.append(f"{indent}}}")
    return lines


def _data_pin(cell: Cell) -> str:
    """The non-clock input of a sequential cell (its next_state pin)."""
    for pin in cell.input_caps_ff:
        if pin != cell.clk_pin:
            return pin
    return "D"


def write_liberty(
    library_name: str,
    cells: Mapping[str, CharacterizedCell],
    vdd: float,
) -> str:
    """Render the characterized cells as Liberty text (lossless)."""
    out: List[str] = []
    out.append(f"library ({library_name}) {{")
    out.append('  delay_model : "table_lookup";')
    out.append('  time_unit : "1ns";')
    out.append('  capacitive_load_unit (1, "ff");')
    out.append(f"  nom_voltage : {repr(float(vdd))};")
    for name in sorted(cells):
        cc = cells[name]
        cell = cc.cell
        out.append(f"  cell ({name}) {{")
        out.append(f"    area : {repr(float(cell.area_um2))};")
        out.append(
            f"    cell_leakage_power : {repr(float(cell.leakage_nw))};"
        )
        out.append(f'    threshold_voltage_group : "{cell.vt}";')
        out.append(f"    drive_strength : {cell.drive};")
        if cell.tags:
            out.append(f'    cell_footprint : "{" ".join(cell.tags)}";')
        if cell.is_memory:
            out.append("    memory : true;")
        out.append(f"    repro_width_um : {repr(float(cell.width_um))};")
        out.append(f"    repro_height_um : {repr(float(cell.height_um))};")
        if cell.is_sequential:
            out.append(
                f"    repro_clk_to_q_ns : {repr(float(cell.clk_to_q_ns))};"
            )
        for pin, cap in cell.input_caps_ff.items():
            out.append(f"    pin ({pin}) {{")
            out.append("      direction : input;")
            out.append(f"      capacitance : {repr(float(cap))};")
            if cell.is_sequential and pin == cell.clk_pin:
                out.append("      clock : true;")
            if cell.is_sequential and pin == _data_pin(cell):
                for kind, value in (
                    ("setup_rising", cell.setup_ns),
                    ("hold_rising", cell.hold_ns),
                ):
                    out.append("      timing () {")
                    out.append(f'        related_pin : "{cell.clk_pin}";')
                    out.append(f"        timing_type : {kind};")
                    out.append(
                        f"        intrinsic_rise : {repr(float(value))};"
                    )
                    out.append("      }")
            out.append("    }")
        for pin in cell.outputs:
            out.append(f"    pin ({pin}) {{")
            out.append("      direction : output;")
            expr = cell.pin_functions.get(pin)
            if expr:
                out.append(f'      function : "{expr}";')
            energy = cell.internal_energy_fj.get(pin, 0.0)
            out.append(f"      internal_power_fj : {repr(float(energy))};")
            for ca in cc.arcs:
                if ca.arc.output_pin != pin:
                    continue
                out.append("      timing () {")
                out.append(f'        related_pin : "{ca.arc.input_pin}";')
                # The nominal linear model, verbatim; the NLDM tables
                # below are its (possibly voltage-scaled) sampled view.
                out.append(
                    f"        intrinsic_rise : {repr(float(ca.arc.d0_ns))};"
                )
                out.append(
                    f"        rise_resistance : {repr(float(ca.arc.r_kohm))};"
                )
                out.extend(_emit_table("cell_rise", ca.delay_table, "        "))
                out.extend(
                    _emit_table("rise_transition", ca.slew_table, "        ")
                )
                out.append("      }")
            out.append("    }")
        if cell.is_sequential:
            out.append("    ff (IQ) {")
            out.append(f'      clocked_on : "{cell.clk_pin}";')
            out.append(f'      next_state : "{_data_pin(cell)}";')
            out.append("    }")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Group-tree parser.
# ---------------------------------------------------------------------------


@dataclass
class _Group:
    """One Liberty group: ``name (arg) { attrs...; subgroups... }``."""

    name: str
    arg: str
    attrs: Dict[str, str] = field(default_factory=dict)
    complex_attrs: List[Tuple[str, str]] = field(default_factory=list)
    groups: List["_Group"] = field(default_factory=list)

    def sub(self, name: str) -> List["_Group"]:
        return [g for g in self.groups if g.name == name]

    def complex(self, name: str) -> Optional[str]:
        for attr_name, arg in self.complex_attrs:
            if attr_name == name:
                return arg
        return None


_COMMENT_RE = re.compile(r"/\*.*?\*/", re.S)
_TOKEN_RE = re.compile(r'"[^"]*"|[{};]|[^"{};]+')
_HEADER_RE = re.compile(r"^(\w+)\s*\((.*)\)$", re.S)


def _parse_groups(text: str) -> _Group:
    """Tokenize Liberty text into a nested group tree."""
    text = _COMMENT_RE.sub("", text)
    text = text.replace("\\\n", " ")
    root = _Group("<root>", "")
    stack = [root]
    buf: List[str] = []

    def statement() -> str:
        stmt = "".join(buf).strip()
        del buf[:]
        return stmt

    for match in _TOKEN_RE.finditer(text):
        tok = match.group(0)
        if tok == "{":
            header = statement()
            m = _HEADER_RE.match(header)
            if m is None:
                raise LibraryError(f"malformed liberty group header {header!r}")
            group = _Group(m.group(1), m.group(2).strip())
            stack[-1].groups.append(group)
            stack.append(group)
        elif tok == ";":
            stmt = statement()
            if not stmt:
                continue
            if ":" in stmt:
                name, _, value = stmt.partition(":")
                stack[-1].attrs[name.strip()] = value.strip()
            else:
                m = _HEADER_RE.match(stmt)
                if m is not None:
                    stack[-1].complex_attrs.append(
                        (m.group(1), m.group(2).strip())
                    )
        elif tok == "}":
            del buf[:]
            if len(stack) == 1:
                raise LibraryError("unbalanced braces in liberty text")
            stack.pop()
        else:
            buf.append(tok)
    if len(stack) != 1:
        raise LibraryError("unbalanced braces in liberty text")
    return root


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def _num(value: str) -> float:
    try:
        return float(_unquote(value))
    except ValueError:
        raise LibraryError(f"bad liberty number {value!r}") from None


def _num_list(arg: str) -> Tuple[float, ...]:
    return tuple(float(v) for v in _unquote(arg).replace(",", " ").split())


# ---------------------------------------------------------------------------
# Cell reconstruction.
# ---------------------------------------------------------------------------


def _fit_linear_arc(timing: _Group) -> Tuple[float, float]:
    """Recover (d0_ns, r_kohm) from an NLDM table when the intrinsic
    attributes are absent — exact for tables produced by this writer's
    linear model, a corner-based fit otherwise."""
    tables = timing.sub("cell_rise")
    if not tables:
        raise LibraryError("timing group has neither intrinsic nor table data")
    table = tables[0]
    slews = _num_list(table.complex("index_1") or "")
    loads = _num_list(table.complex("index_2") or "")
    values_arg = table.complex("values")
    if values_arg is None or not slews or not loads:
        raise LibraryError("cell_rise table missing axes or values")
    rows = re.findall(r'"([^"]*)"', values_arg)
    first_row = tuple(
        float(v) for v in rows[0].replace(",", " ").split()
    ) if rows else _num_list(values_arg)
    if len(loads) > 1 and len(first_row) == len(loads):
        r_kohm = (first_row[-1] - first_row[0]) / (loads[-1] - loads[0]) * 1e3
    else:
        r_kohm = 0.0
    d0 = first_row[0] - r_kohm * loads[0] * 1e-3 - SLEW_SENSITIVITY * slews[0]
    return d0, r_kohm


def _cell_from_group(group: _Group) -> Cell:
    name = group.arg
    parsed_name = parse_variant_name(name)
    attrs = group.attrs

    input_caps: Dict[str, float] = {}
    outputs: List[str] = []
    arcs: List[TimingArc] = []
    pin_functions: Dict[str, str] = {}
    energy: Dict[str, float] = {}
    clk_pin = ""
    setup_ns = 0.0
    hold_ns = 0.0

    for pin_group in group.sub("pin"):
        pin = pin_group.arg
        direction = pin_group.attrs.get("direction", "input")
        if direction == "input":
            input_caps[pin] = _num(pin_group.attrs.get("capacitance", "0"))
            if pin_group.attrs.get("clock", "").lower() == "true":
                clk_pin = pin
            for timing in pin_group.sub("timing"):
                kind = timing.attrs.get("timing_type", "")
                value = _num(timing.attrs.get("intrinsic_rise", "0"))
                if kind.startswith("setup"):
                    setup_ns = value
                elif kind.startswith("hold"):
                    hold_ns = value
        else:
            outputs.append(pin)
            expr = _unquote(pin_group.attrs.get("function", ""))
            if expr:
                pin_functions[pin] = expr
            energy[pin] = _num(pin_group.attrs.get("internal_power_fj", "0"))
            for timing in pin_group.sub("timing"):
                related = _unquote(timing.attrs.get("related_pin", ""))
                if not related:
                    raise LibraryError(f"{name}.{pin}: timing without related_pin")
                if (
                    "intrinsic_rise" in timing.attrs
                    and "rise_resistance" in timing.attrs
                ):
                    d0 = _num(timing.attrs["intrinsic_rise"])
                    r = _num(timing.attrs["rise_resistance"])
                else:
                    d0, r = _fit_linear_arc(timing)
                arcs.append(TimingArc(related, pin, d0, r))

    ff_groups = group.sub("ff") + group.sub("latch")
    is_sequential = bool(ff_groups)
    if is_sequential and not clk_pin:
        clk_pin = _unquote(ff_groups[0].attrs.get("clocked_on", ""))
    clk_to_q = _num(attrs["repro_clk_to_q_ns"]) if "repro_clk_to_q_ns" in attrs else 0.0
    if is_sequential and not clk_to_q:
        for arc in arcs:
            if arc.input_pin == clk_pin:
                clk_to_q = arc.d0_ns
                break

    area = _num(attrs.get("area", "0"))
    height = (
        _num(attrs["repro_height_um"]) if "repro_height_um" in attrs else 1.8
    )
    width = (
        _num(attrs["repro_width_um"])
        if "repro_width_um" in attrs
        else (area / height if height else 0.0)
    )
    vt = _unquote(attrs.get("threshold_voltage_group", ""))
    if not vt:
        vt = parsed_name[1] if parsed_name else "svt"
    drive_attr = attrs.get("drive_strength", "")
    if drive_attr:
        drive = int(_num(drive_attr))
    else:
        drive = parsed_name[2] if parsed_name else 1
    tags_attr = _unquote(attrs.get("cell_footprint", ""))
    tags = tuple(tags_attr.split()) if tags_attr else ()

    return Cell(
        name=name,
        area_um2=area,
        input_caps_ff=input_caps,
        outputs=tuple(outputs),
        arcs=tuple(arcs),
        leakage_nw=_num(attrs.get("cell_leakage_power", "0")),
        internal_energy_fj=energy,
        is_sequential=is_sequential,
        clk_pin=clk_pin,
        clk_to_q_ns=clk_to_q,
        setup_ns=setup_ns,
        hold_ns=hold_ns,
        is_memory=attrs.get("memory", "").lower() == "true",
        width_um=width,
        height_um=height,
        tags=tags,
        vt=vt,
        drive=drive,
        pin_functions=pin_functions,
    )


@dataclass
class ParsedLiberty:
    """A parsed .lib: header fields plus reconstructed cells, in file
    order (order is part of the losslessness contract)."""

    name: str
    nom_voltage: float
    cells: Dict[str, Cell]


def parse_liberty_cells(text: str) -> ParsedLiberty:
    """Parse Liberty text into full :class:`Cell` objects."""
    root = _parse_groups(text)
    libraries = root.sub("library")
    if not libraries:
        raise LibraryError("no library group in liberty text")
    lib = libraries[0]
    cells: Dict[str, Cell] = {}
    for cell_group in lib.sub("cell"):
        cell = _cell_from_group(cell_group)
        if cell.name in cells:
            raise LibraryError(f"duplicate cell {cell.name} in liberty text")
        cells[cell.name] = cell
    if not cells:
        raise LibraryError("no cells found in liberty text")
    return ParsedLiberty(
        name=lib.arg,
        nom_voltage=_num(lib.attrs.get("nom_voltage", "0")),
        cells=cells,
    )


def library_from_liberty(text: str) -> StdCellLibrary:
    """Import Liberty text as a standard-cell library backend."""
    return StdCellLibrary(parse_liberty_cells(text).cells)


def read_liberty_library(path: Union[str, Path]) -> StdCellLibrary:
    """Read a .lib file as a :class:`StdCellLibrary` (the ``--lib-in``
    backend of the CLI)."""
    return library_from_liberty(Path(path).read_text())


def export_liberty(
    library: StdCellLibrary,
    process: Process,
    name: str = "repro40",
) -> str:
    """Characterize and export a whole library at the process's nominal
    voltage (the ``--lib-out`` path)."""
    vdd = process.vdd_nominal
    return write_liberty(name, characterize_library(list(library), process, vdd), vdd)
