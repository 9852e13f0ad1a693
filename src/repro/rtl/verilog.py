"""Structural Verilog emission for :class:`~repro.rtl.ir.Module`.

The compiler hands RTL/netlists to downstream consumers as Verilog
(paper Fig. 2: "RTL & netlist" outputs).  Scalar nets whose names carry
bus indices (``data[3]``) are re-bundled into declared vectors so the
output reads like hand-written structural Verilog.
"""

from __future__ import annotations

import re
from typing import Dict, List, Set, Tuple

from .ir import Module

_BUS_RE = re.compile(r"^(?P<base>[A-Za-z_][\w/]*)\[(?P<idx>\d+)\]$")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def _escape(name: str) -> str:
    """Escape identifiers Verilog would reject (hierarchy slashes etc.)."""
    if _IDENT_RE.fullmatch(name):
        return name
    return f"\\{name} "


def _group_buses(names: List[str]) -> Tuple[Dict[str, int], List[str]]:
    """Split names into bus bases (base -> msb) and scalar names."""
    buses: Dict[str, int] = {}
    scalars: List[str] = []
    seen_indices: Dict[str, Set[int]] = {}
    for n in names:
        m = _BUS_RE.match(n)
        if m:
            base = m.group("base")
            idx = int(m.group("idx"))
            buses[base] = max(buses.get(base, 0), idx)
            seen_indices.setdefault(base, set()).add(idx)
        else:
            scalars.append(n)
    # Demote sparse buses (missing indices) to scalars to stay lint-clean.
    for base, msb in list(buses.items()):
        if seen_indices[base] != set(range(msb + 1)):
            del buses[base]
            scalars.extend(f"{base}[{i}]" for i in sorted(seen_indices[base]))
    return buses, scalars


def emit_verilog(module: Module) -> str:
    """Render one (typically flat) module as structural Verilog."""
    ports = list(module.ports.values())
    # Every net is named once per pin it touches: escape each name once.
    escaped: Dict[str, str] = {}

    def esc(name: str) -> str:
        text = escaped.get(name)
        if text is None:
            text = escaped[name] = _escape(name)
        return text

    in_buses, in_scalars = _group_buses(
        [p.name for p in ports if p.direction == "input"]
    )
    out_buses, out_scalars = _group_buses(
        [p.name for p in ports if p.direction == "output"]
    )

    header_ports: List[str] = []
    for base in sorted(in_buses) + sorted(out_buses):
        header_ports.append(esc(base))
    for s in in_scalars + out_scalars:
        header_ports.append(esc(s))

    lines: List[str] = []
    lines.append(f"module {esc(module.name)} (")
    lines.append("  " + ",\n  ".join(header_ports))
    lines.append(");")
    for base in sorted(in_buses):
        lines.append(f"  input [{in_buses[base]}:0] {esc(base)};")
    for s in in_scalars:
        lines.append(f"  input {esc(s)};")
    for base in sorted(out_buses):
        lines.append(f"  output [{out_buses[base]}:0] {esc(base)};")
    for s in out_scalars:
        lines.append(f"  output {esc(s)};")

    port_names = {p.name for p in ports}
    internal = [n for n in module.nets if n not in port_names]
    wire_buses, wire_scalars = _group_buses(internal)
    for base in sorted(wire_buses):
        lines.append(f"  wire [{wire_buses[base]}:0] {esc(base)};")
    for s in wire_scalars:
        lines.append(f"  wire {esc(s)};")
    lines.append("")

    for inst in module.instances:
        ref = inst.cell_name if inst.is_leaf else inst.module.name
        conns = ", ".join(
            f".{pin}({esc(net)})" for pin, net in sorted(inst.conn.items())
        )
        lines.append(f"  {esc(ref)} {esc(inst.name)} ({conns});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
