"""Bit-level decoders the simulation tests read netlist outputs with.

``decode_int``, ``decode_unsigned``, ``unpack_fp`` and ``pack_bits``
(``FPFields.pack_bits`` in ``repro.sim.formats``) are the inverses of
the package's encoders: nothing in the compile flow decodes bits, so
they live beside the tests and oracles that do (``tests/macro_tb.py``,
``reference.gatesim``, ``tests/test_gen_subcircuits.py`` and
``tests/test_sim_formats.py``).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import SimulationError
from repro.sim.formats import FPFields
from repro.spec import DataFormat


def decode_int(bits: Sequence[int]) -> int:
    """Two's-complement value of LSB-first bits."""
    u = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise SimulationError(f"non-binary bit {bit!r}")
        u |= bit << i
    if bits and bits[-1]:
        u -= 1 << len(bits)
    return u


def decode_unsigned(bits: Sequence[int]) -> int:
    u = 0
    for i, bit in enumerate(bits):
        u |= (bit & 1) << i
    return u


def pack_bits(fields: FPFields) -> List[int]:
    """LSB-first: mantissa, exponent, sign."""
    fmt = fields.fmt
    bits = [(fields.mantissa >> i) & 1 for i in range(fmt.mantissa)]
    bits += [(fields.exponent >> i) & 1 for i in range(fmt.exponent)]
    bits.append(fields.sign)
    return bits


def unpack_fp(bits: Sequence[int], fmt: DataFormat) -> FPFields:
    if len(bits) != fmt.bits:
        raise SimulationError(f"expected {fmt.bits} bits, got {len(bits)}")
    m = decode_unsigned(bits[: fmt.mantissa])
    e = decode_unsigned(bits[fmt.mantissa : fmt.mantissa + fmt.exponent])
    s = bits[fmt.mantissa + fmt.exponent]
    return FPFields(sign=s, exponent=e, mantissa=m, fmt=fmt)
