"""User-facing specification objects.

SynDCIM is driven by two specification groups (paper, Fig. 2):

* *architecture parameters* — array dimensions, memory-compute ratio
  (MCR) and the set of supported INT/FP precisions;
* *performance constraints* — MAC frequency, weight-update frequency and
  power/performance/area (PPA) preference weights.

:class:`MacroSpec` bundles both groups and validates them eagerly so the
search never has to handle malformed inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, Sequence, Tuple

from .errors import SpecificationError


@dataclass(frozen=True)
class DataFormat:
    """A numeric format the macro must support.

    ``kind`` is ``"int"`` or ``"fp"``.  Integer formats are two's
    complement with ``bits`` total bits.  Floating-point formats carry an
    ``exponent``/``mantissa`` split (sign bit implied), so
    ``bits == 1 + exponent + mantissa``.
    """

    name: str
    kind: str
    bits: int
    exponent: int = 0
    mantissa: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("int", "fp"):
            raise SpecificationError(f"unknown format kind {self.kind!r}")
        if self.bits < 1:
            raise SpecificationError(f"{self.name}: bits must be >= 1")
        if self.kind == "fp":
            if self.exponent < 1 or self.mantissa < 0:
                raise SpecificationError(
                    f"{self.name}: fp format needs exponent>=1, mantissa>=0"
                )
            if 1 + self.exponent + self.mantissa != self.bits:
                raise SpecificationError(
                    f"{self.name}: 1+{self.exponent}+{self.mantissa} != {self.bits}"
                )

    @property
    def is_float(self) -> bool:
        return self.kind == "fp"

    @property
    def bias(self) -> int:
        """IEEE-style exponent bias; only meaningful for FP formats."""
        return (1 << (self.exponent - 1)) - 1 if self.is_float else 0

    @property
    def serial_bits(self) -> int:
        """Bits fed serially into the array for one operand.

        Integers stream all their bits; floats stream the signed
        significand (sign + hidden one + mantissa) *after* the alignment
        unit has shifted it to the group's shared exponent and rounded
        back to significand width — so FP8(E4M3) costs 5 serial cycles,
        close to INT4, which is what makes the paper's ~10 % FP8 power
        overhead possible.
        """
        return self.bits if not self.is_float else self.mantissa + 2

    @property
    def storage_bits(self) -> int:
        """Bit columns one weight of this format occupies in the array."""
        return self.bits if not self.is_float else self.mantissa + 2

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable description (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "bits": self.bits,
            "exponent": self.exponent,
            "mantissa": self.mantissa,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DataFormat":
        return cls(
            name=str(data["name"]),
            kind=str(data["kind"]),
            bits=int(data["bits"]),  # type: ignore[arg-type]
            exponent=int(data.get("exponent", 0)),  # type: ignore[arg-type]
            mantissa=int(data.get("mantissa", 0)),  # type: ignore[arg-type]
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _int_format(bits: int) -> DataFormat:
    return DataFormat(name=f"INT{bits}", kind="int", bits=bits)


#: Formats named in the paper (Sections II.A and IV).
INT1 = _int_format(1)
INT2 = _int_format(2)
INT4 = _int_format(4)
INT8 = _int_format(8)
INT12 = _int_format(12)
FP4 = DataFormat(name="FP4", kind="fp", bits=4, exponent=2, mantissa=1)
FP8 = DataFormat(name="FP8", kind="fp", bits=8, exponent=4, mantissa=3)
BF16 = DataFormat(name="BF16", kind="fp", bits=16, exponent=8, mantissa=7)

FORMATS: Dict[str, DataFormat] = {
    f.name: f for f in (INT1, INT2, INT4, INT8, INT12, FP4, FP8, BF16)
}


def parse_format(name: str) -> DataFormat:
    """Look up a format by name (``"INT8"``, ``"FP8"``, ``"BF16"``...)."""
    try:
        return FORMATS[name.upper()]
    except KeyError:
        raise SpecificationError(
            f"unknown data format {name!r}; known: {sorted(FORMATS)}"
        ) from None


@dataclass(frozen=True)
class PPAWeights:
    """Relative preference among power, performance (delay) and area.

    The searcher scores candidate macros with a weighted geometric mean,
    so only the ratios between the weights matter.  All weights must be
    finite and non-negative, and at least one positive.
    """

    power: float = 1.0
    performance: float = 1.0
    area: float = 1.0

    def __post_init__(self) -> None:
        weights = (self.power, self.performance, self.area)
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise SpecificationError(
                f"PPA weights must be finite and >= 0, got {weights}"
            )
        if all(w == 0 for w in weights):
            raise SpecificationError("at least one PPA weight must be positive")

    def to_dict(self) -> Dict[str, float]:
        return {
            "power": self.power,
            "performance": self.performance,
            "area": self.area,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PPAWeights":
        return cls(
            power=float(data.get("power", 1.0)),  # type: ignore[arg-type]
            performance=float(data.get("performance", 1.0)),  # type: ignore[arg-type]
            area=float(data.get("area", 1.0)),  # type: ignore[arg-type]
        )

    def score(self, power_mw: float, delay_ns: float, area_um2: float) -> float:
        """Lower-is-better scalar cost: weighted geometric mean of PPA,
        each weight normalized inline by the sum of the three."""
        total = self.power + self.performance + self.area
        eps = 1e-12
        return math.exp(
            self.power / total * math.log(max(power_mw, eps))
            + self.performance / total * math.log(max(delay_ns, eps))
            + self.area / total * math.log(max(area_um2, eps))
        )


@dataclass(frozen=True)
class MacroSpec:
    """Complete user specification of one DCIM macro.

    Parameters
    ----------
    height:
        Number of accumulated rows ``H`` (inputs summed per column).
    width:
        Number of physical bit-columns ``W``.
    mcr:
        Memory-compute ratio: SRAM rows stored per compute row.  ``mcr=2``
        doubles on-macro weight storage and needs a multiplexer in front
        of each multiplier.
    input_formats / weight_formats:
        Data formats the macro must support.  The widest integer width
        (after FP alignment) sizes the datapath.
    mac_frequency_mhz / update_frequency_mhz:
        Target MAC clock and weight-update clock at ``vdd``.
    vdd:
        Supply voltage the constraints refer to.
    ppa:
        Preference weights used to pick among Pareto-optimal candidates.
    """

    height: int = 64
    width: int = 64
    mcr: int = 2
    input_formats: Tuple[DataFormat, ...] = (INT4, INT8)
    weight_formats: Tuple[DataFormat, ...] = (INT4, INT8)
    mac_frequency_mhz: float = 800.0
    update_frequency_mhz: float = 800.0
    vdd: float = 0.9
    ppa: PPAWeights = field(default_factory=PPAWeights)

    def __post_init__(self) -> None:
        if self.height < 4 or self.height & (self.height - 1):
            raise SpecificationError(
                f"height must be a power of two >= 4, got {self.height}"
            )
        if self.width < 4 or self.width & (self.width - 1):
            raise SpecificationError(
                f"width must be a power of two >= 4, got {self.width}"
            )
        if self.mcr < 1 or self.mcr > 8:
            raise SpecificationError(f"mcr must be in [1, 8], got {self.mcr}")
        if not self.input_formats or not self.weight_formats:
            raise SpecificationError("at least one input and weight format required")
        if max(f.serial_bits for f in self.input_formats) < 2:
            # The bit-serial datapath shifts by at least one place: a
            # 1-bit-only input has no shift-adder to search.
            raise SpecificationError(
                "at least one input format needs 2 or more serial bits "
                "(INT1 inputs are supported only beside a wider format)"
            )
        for name in ("mac_frequency_mhz", "update_frequency_mhz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise SpecificationError(
                    f"{name} must be finite and positive, got {value}"
                )
        if not 0.5 <= self.vdd <= 1.3:
            raise SpecificationError(f"vdd {self.vdd} outside supported 0.5..1.3 V")

    def __getstate__(self) -> Dict[str, object]:
        # Pickle the fields only, as before any derived value was
        # cached: a copy recomputes what it needs.
        return {name: self.__dict__[name] for name in _SPEC_FIELDS}

    # -- derived datapath dimensions -------------------------------------
    # The ones the searcher's estimator reads for every candidate are
    # cached_property: cached per instance in __dict__ beside the fields,
    # outside the dataclass's equality, hash, repr and to_dict.

    @cached_property
    def input_width(self) -> int:
        """Serial input bit-width: widest operand among the inputs."""
        return max(f.serial_bits for f in self.input_formats)

    @cached_property
    def widest_formats(self) -> Tuple[DataFormat, DataFormat]:
        """The default (input, weight) precision mode: the input format
        with the most serial bits and the weight format with the most
        storage bits (the first such, on ties)."""
        return (
            max(self.input_formats, key=lambda f: f.serial_bits),
            max(self.weight_formats, key=lambda f: f.storage_bits),
        )

    @cached_property
    def max_weight_bits(self) -> int:
        """Widest weight precision rounded up to a power of two (the OFU
        fuses columns pairwise, stage by stage)."""
        widest = max(f.storage_bits for f in self.weight_formats)
        bits = 2  # INT1 weights ride the INT2 datapath
        while bits < widest:
            bits *= 2
        return bits

    @property
    def needs_fp(self) -> bool:
        """Whether an FP/INT alignment unit is required at all."""
        return any(f.is_float for f in self.input_formats) or any(
            f.is_float for f in self.weight_formats
        )

    @property
    def tree_sum_width(self) -> int:
        """Bit-width of one column's adder-tree output (unsigned count)."""
        return int(math.floor(math.log2(self.height))) + 1

    @cached_property
    def accumulator_width(self) -> int:
        """Bit-width of the per-column S&A accumulator: the tree sum
        grows by one position per serial input bit."""
        return self.tree_sum_width + self.input_width

    @property
    def mac_period_ns(self) -> float:
        return 1e3 / self.mac_frequency_mhz

    def describe(self) -> str:
        fmts_i = "/".join(f.name for f in self.input_formats)
        fmts_w = "/".join(f.name for f in self.weight_formats)
        return (
            f"{self.height}x{self.width} MCR={self.mcr} "
            f"in[{fmts_i}] w[{fmts_w}] "
            f"@{self.mac_frequency_mhz:.0f}MHz {self.vdd}V"
        )

    def replace(self, **changes: object) -> "MacroSpec":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    # -- serialization / identity ----------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable description (inverse of :meth:`from_dict`).

        Used by the batch engine to ship specs across process boundaries
        and by the result cache to key artifacts, so it must cover every
        field that affects compilation.
        """
        return {
            "height": self.height,
            "width": self.width,
            "mcr": self.mcr,
            "input_formats": [f.to_dict() for f in self.input_formats],
            "weight_formats": [f.to_dict() for f in self.weight_formats],
            "mac_frequency_mhz": self.mac_frequency_mhz,
            "update_frequency_mhz": self.update_frequency_mhz,
            "vdd": self.vdd,
            "ppa": self.ppa.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MacroSpec":
        """Build from outside data (a JSONL line, an HTTP body).  A
        missing key, a wrong type and a number too large for a float
        (JSON reads ``1e999`` as infinity, and an integer has no size
        limit) are each a :class:`SpecificationError`, like any spec
        the constructor refuses."""
        try:
            return cls(
                height=int(data["height"]),  # type: ignore[arg-type]
                width=int(data["width"]),  # type: ignore[arg-type]
                mcr=int(data.get("mcr", 2)),  # type: ignore[arg-type]
                input_formats=tuple(
                    DataFormat.from_dict(d) for d in data["input_formats"]  # type: ignore[union-attr]
                ),
                weight_formats=tuple(
                    DataFormat.from_dict(d) for d in data["weight_formats"]  # type: ignore[union-attr]
                ),
                mac_frequency_mhz=float(data.get("mac_frequency_mhz", 800.0)),  # type: ignore[arg-type]
                update_frequency_mhz=float(data.get("update_frequency_mhz", 800.0)),  # type: ignore[arg-type]
                vdd=float(data.get("vdd", 0.9)),  # type: ignore[arg-type]
                ppa=PPAWeights.from_dict(data.get("ppa", {})),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise SpecificationError(
                f"malformed spec ({type(exc).__name__}: {exc})"
            ) from None

    def canonical_json(self) -> str:
        """Deterministic JSON encoding: sorted keys, no whitespace.

        Two equal specs always encode to the same string, in any
        process, so the encoding (and the hash derived from it) can key
        an on-disk cache shared between machines.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def content_hash(self) -> str:
        """Stable hex digest identifying this spec's content.

        ``hashlib`` based, unlike ``hash()``, so the value survives
        ``PYTHONHASHSEED`` randomization and process restarts.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


_SPEC_FIELDS = tuple(f.name for f in dataclasses.fields(MacroSpec))


def spec_from_strings(
    height: int,
    width: int,
    mcr: int,
    formats: Sequence[str],
    mac_frequency_mhz: float = 800.0,
    **kwargs: object,
) -> MacroSpec:
    """Convenience constructor from format names shared by inputs/weights."""
    parsed = tuple(parse_format(name) for name in formats)
    return MacroSpec(
        height=height,
        width=width,
        mcr=mcr,
        input_formats=parsed,
        weight_formats=parsed,
        mac_frequency_mhz=mac_frequency_mhz,
        **kwargs,  # type: ignore[arg-type]
    )
