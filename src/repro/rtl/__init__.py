"""RTL intermediate representation, Verilog emission and generators.

See ``docs/architecture.md`` for how this package fits the
spec-to-layout pipeline.
"""

from .ir import (
    CONST0,
    CONST1,
    Instance,
    Module,
    NetlistBuilder,
    Port,
    bus,
)
from .verilog import emit_verilog

__all__ = [
    "CONST0",
    "CONST1",
    "Instance",
    "Module",
    "NetlistBuilder",
    "Port",
    "bus",
    "emit_verilog",
]
