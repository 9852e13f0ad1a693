"""Bit-exact INT and FP encode/decode helpers.

These routines define the numeric contract between the behavioural
macro model, the gate-level netlists and the test suite: two's
complement integers travel LSB-first, and floating-point operands are
packed ``[mantissa | exponent | sign]`` LSB-first, matching the port
conventions of :mod:`repro.rtl.gen.alignment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import SimulationError
from ..spec import DataFormat


def int_range(bits: int) -> Tuple[int, int]:
    """Inclusive (min, max) of a two's-complement integer."""
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def encode_int(value: int, bits: int) -> List[int]:
    """Two's-complement bits, LSB first."""
    lo, hi = int_range(bits)
    if not lo <= value <= hi:
        raise SimulationError(f"{value} out of range for INT{bits}")
    u = value & ((1 << bits) - 1)
    return [(u >> i) & 1 for i in range(bits)]


def wrap_to_width(value: int, bits: int) -> int:
    """Interpret ``value mod 2^bits`` as a signed number (register wrap)."""
    u = value & ((1 << bits) - 1)
    if u >= 1 << (bits - 1):
        u -= 1 << bits
    return u


@dataclass(frozen=True)
class FPFields:
    """Unpacked fields of one FP operand."""

    sign: int
    exponent: int
    mantissa: int
    fmt: DataFormat

    def __post_init__(self) -> None:
        if self.sign not in (0, 1):
            raise SimulationError("sign must be 0 or 1")
        if not 0 <= self.exponent < (1 << self.fmt.exponent):
            raise SimulationError("exponent out of range")
        if not 0 <= self.mantissa < (1 << self.fmt.mantissa):
            raise SimulationError("mantissa out of range")

    @property
    def is_subnormal(self) -> bool:
        return self.exponent == 0

    def to_float(self) -> float:
        bias = self.fmt.bias
        m_scale = 1 << self.fmt.mantissa
        if self.is_subnormal:
            mag = (self.mantissa / m_scale) * 2.0 ** (1 - bias)
        else:
            mag = (1.0 + self.mantissa / m_scale) * 2.0 ** (self.exponent - bias)
        return -mag if self.sign else mag

    def signed_significand(self) -> int:
        """``(-1)^s * (hidden.mantissa)`` as an integer — the value the
        alignment unit extracts before shifting."""
        hidden = 0 if self.is_subnormal else 1
        mag = (hidden << self.fmt.mantissa) | self.mantissa
        return -mag if self.sign else mag


def quantize_to_fp(value: float, fmt: DataFormat) -> FPFields:
    """Round a real number to the nearest representable value (ties to
    away, saturating at the format maximum, no infinities/NaNs)."""
    if not fmt.is_float:
        raise SimulationError(f"{fmt.name} is not floating point")
    sign = 1 if value < 0 else 0
    mag = abs(value)
    bias = fmt.bias
    m_scale = 1 << fmt.mantissa
    max_exp = (1 << fmt.exponent) - 1
    if mag == 0.0:
        return FPFields(sign=0, exponent=0, mantissa=0, fmt=fmt)
    # Find exponent such that 1.0 <= mag / 2^(e-bias) < 2.0.
    import math

    e = int(math.floor(math.log2(mag))) + bias
    if e <= 0:
        # Subnormal range.
        m = int(round(mag / 2.0 ** (1 - bias) * m_scale))
        if m >= m_scale:
            return FPFields(sign=sign, exponent=1, mantissa=0, fmt=fmt)
        return FPFields(sign=sign, exponent=0, mantissa=m, fmt=fmt)
    e = min(e, max_exp)
    frac = mag / 2.0 ** (e - bias)
    m = int(round((frac - 1.0) * m_scale))
    if m >= m_scale:
        e += 1
        m = 0
    if e > max_exp:
        e = max_exp
        m = m_scale - 1
    return FPFields(sign=sign, exponent=e, mantissa=m, fmt=fmt)


def align_group(
    operands: Sequence[FPFields],
) -> Tuple[List[int], int]:
    """Behavioural twin of the alignment-unit netlist.

    Returns the aligned signed significands (arithmetic right shift by
    the exponent deficit, truncating toward minus infinity) and the
    shared maximum *effective* exponent.  Subnormals (exponent field 0)
    scale like exponent 1 without the hidden bit — IEEE semantics —
    so the shift distance uses ``max(e, 1)``.
    """
    if not operands:
        raise SimulationError("alignment group must be non-empty")
    effective = [max(op.exponent, 1) for op in operands]
    emax = max(effective)
    aligned = [
        op.signed_significand() >> (emax - eff)
        for op, eff in zip(operands, effective)
    ]
    return aligned, emax


def group_scale(fmt: DataFormat, emax: int) -> float:
    """Real-value weight of one aligned-significand unit."""
    eff = emax if emax > 0 else 1  # subnormal group
    return 2.0 ** (eff - fmt.bias - fmt.mantissa)
