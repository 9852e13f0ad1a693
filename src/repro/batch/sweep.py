"""Sweep grammar: compact range expressions over spec axes.

The ``repro sweep`` CLI describes design grids with one token per axis
value, where a token is either a literal value or a range::

    32              a single value
    32:256:x2       geometric: 32, 64, 128, 256  (multiply by 2)
    400:1000:+200   arithmetic: 400, 600, 800, 1000  (add 200)

Stops are inclusive when landed on exactly; a geometric step must be an
integer/float > 1, an arithmetic step nonzero (negative steps count
down).  Format axes use comma-joined groups, one group per token:
``INT4,INT8 INT8`` sweeps two format sets.

:func:`expand_grid` takes the per-axis value lists and produces the
cartesian product as :class:`~repro.spec.MacroSpec` objects in a
deterministic row-major order (height, width, mcr, formats, frequency,
vdd) — the order results appear in JSONL outputs and summaries.
:func:`expand_axes` is the front ends' one entry: raw tokens per axis
in, an absent axis filled from :data:`AXIS_DEFAULTS`, the grid out.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import SpecificationError
from ..options import PPA_PRESETS
from ..spec import DataFormat, MacroSpec, PPAWeights, parse_format

#: Cap on the values one axis's tokens generate, duplicates included
#: and counted as they are generated: it catches runaway ranges like
#: 1:1e9:+1, and a body of repeated or overlapping tokens, before
#: either costs more than one full axis.
MAX_AXIS_POINTS = 4096
#: Cap on the whole grid (the product of the axis lengths), checked
#: before any spec is built: two capped axes would make 16.7M specs.
MAX_GRID_POINTS = 65536
#: The tokens an axis sweeps when the caller leaves it out: the
#: defaults of ``repro sweep`` and of ``POST /v1/sweeps``.
AXIS_DEFAULTS: Dict[str, Tuple[str, ...]] = {
    "height": ("64",),
    "width": ("64",),
    "mcr": ("2",),
    "formats": ("INT4,INT8",),
    "frequency": ("800",),
    "vdd": ("0.9",),
}


def parse_axis(tokens: Sequence[str], integer: bool = True) -> List[float]:
    """Expand a whole axis (several tokens), deduplicated, order kept.
    The tokens may generate at most :data:`MAX_AXIS_POINTS` values in
    all, duplicates included."""
    return list(dict.fromkeys(_capped(tokens, integer)))


def _capped(tokens: Sequence[str], integer: bool) -> Iterator[float]:
    """Every value ``tokens`` generate, in order; refuses the axis at
    the first value past :data:`MAX_AXIS_POINTS`, naming its token."""
    generated = 0
    for token in tokens:
        for value in _expand(token, integer):
            generated += 1
            if generated > MAX_AXIS_POINTS:
                raise SpecificationError(
                    f"sweep range {token!r} expands past {MAX_AXIS_POINTS} points"
                )
            yield value


def _expand(token: str, integer: bool) -> Iterator[float]:
    """The values of one token, generated lazily."""
    token = token.strip()
    if not token:
        raise SpecificationError("empty sweep token")
    parts = token.split(":")
    if len(parts) == 1:
        yield _number(parts[0], integer)
        return
    if len(parts) != 3:
        raise SpecificationError(
            f"bad sweep range {token!r}; expected VALUE, "
            "START:STOP:xFACTOR or START:STOP:+STEP"
        )
    start = _number(parts[0], integer)
    stop = _number(parts[1], integer)
    step_token = parts[2].strip()
    if not step_token or step_token[0] not in "x+":
        raise SpecificationError(
            f"bad sweep step {parts[2]!r} in {token!r}; "
            "use x<factor> (geometric) or +<step> (arithmetic)"
        )
    if step_token[0] == "x":
        factor = _number(step_token[1:], integer=False)
        if factor <= 1:
            raise SpecificationError(
                f"geometric step must be > 1, got {factor} in {token!r}"
            )
        if start <= 0:
            raise SpecificationError(
                f"geometric range needs a positive start, got {start}"
            )
        if stop < start:
            raise SpecificationError(
                f"descending geometric range {token!r}; start <= stop required"
            )
        # Values come from start * factor**i (not repeated in-place
        # multiplication) so float error never accumulates — the
        # rendered values feed canonical_json() and the cache key.
        i = 0
        while True:
            value = start * factor**i
            if value > stop * (1 + 1e-9):
                break
            yield _round(value, integer)
            i += 1
    else:
        step = _number(step_token[1:], integer)
        if step == 0:
            raise SpecificationError(f"arithmetic step is zero in {token!r}")
        if (stop - start) * step < 0:
            raise SpecificationError(
                f"range {token!r} never reaches its stop with step {step:+g}"
            )
        direction = 1 if step > 0 else -1
        i = 0
        while True:
            value = start + i * step
            if (value - stop) * direction > abs(step) * 1e-9:
                break
            yield _round(value, integer)
            i += 1


def parse_format_sets(tokens: Sequence[str]) -> List[Tuple[DataFormat, ...]]:
    """Each token is a comma-joined format group: ``INT4,INT8,FP8``."""
    sets: Dict[Tuple[DataFormat, ...], None] = {}
    for token in tokens:
        names = [n for n in token.split(",") if n]
        if not names:
            raise SpecificationError(f"empty format group {token!r}")
        sets[tuple(parse_format(name) for name in names)] = None
    return list(sets)


def expand_grid(
    heights: Sequence[int],
    widths: Sequence[int],
    mcrs: Sequence[int],
    format_sets: Sequence[Tuple[DataFormat, ...]],
    frequencies: Sequence[float],
    vdds: Sequence[float],
    ppa: Optional[PPAWeights] = None,
) -> List[MacroSpec]:
    """Cartesian product of the axes, row-major, as validated specs."""
    points = 1
    for name, axis in (
        ("height", heights),
        ("width", widths),
        ("mcr", mcrs),
        ("formats", format_sets),
        ("frequency", frequencies),
        ("vdd", vdds),
    ):
        if not axis:
            raise SpecificationError(f"sweep axis {name!r} is empty")
        points *= len(axis)
    if points > MAX_GRID_POINTS:
        raise SpecificationError(
            f"sweep grid of {points} points exceeds {MAX_GRID_POINTS}"
        )
    specs: List[MacroSpec] = []
    for height in heights:
        for width in widths:
            for mcr in mcrs:
                for formats in format_sets:
                    for freq in frequencies:
                        for vdd in vdds:
                            # update_frequency_mhz stays at the spec
                            # default so a sweep point hashes the same
                            # as the identical spec entered via the
                            # compile CLI or a `batch --specs` file.
                            specs.append(
                                MacroSpec(
                                    height=int(height),
                                    width=int(width),
                                    mcr=int(mcr),
                                    input_formats=formats,
                                    weight_formats=formats,
                                    mac_frequency_mhz=float(freq),
                                    vdd=float(vdd),
                                    ppa=ppa or PPAWeights(),
                                )
                            )
    return specs


def expand_axes(
    axes: Mapping[str, Union[str, Sequence[str]]], ppa: str = "balanced"
) -> List[MacroSpec]:
    """The grid of raw axis tokens, as both sweep front ends take them:
    a string is one token, an absent axis sweeps its
    :data:`AXIS_DEFAULTS`, and ``ppa`` names a preset of
    :data:`repro.options.PPA_PRESETS`."""
    unknown = sorted(set(axes) - set(AXIS_DEFAULTS))
    if unknown:
        raise SpecificationError(
            f"unknown sweep axis(es) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(AXIS_DEFAULTS))}"
        )
    try:
        weights = PPA_PRESETS[ppa]
    except KeyError:
        raise SpecificationError(
            f"unknown ppa preset {ppa!r}; "
            f"known: {', '.join(sorted(PPA_PRESETS))}"
        ) from None
    tokens = {}
    for name, default in AXIS_DEFAULTS.items():
        value = axes.get(name, default)
        tokens[name] = [value] if isinstance(value, str) else [str(v) for v in value]
    return expand_grid(
        heights=parse_axis(tokens["height"]),
        widths=parse_axis(tokens["width"]),
        mcrs=parse_axis(tokens["mcr"]),
        format_sets=parse_format_sets(tokens["formats"]),
        frequencies=parse_axis(tokens["frequency"], integer=False),
        vdds=parse_axis(tokens["vdd"], integer=False),
        ppa=weights,
    )


def grid_summary(specs: Sequence[MacroSpec]) -> str:
    """One line naming the swept axes and the grid size."""
    axes: Dict[str, Dict[object, None]] = {}
    for spec in specs:
        for name, value in (
            ("height", spec.height),
            ("width", spec.width),
            ("mcr", spec.mcr),
            ("formats", "/".join(f.name for f in spec.input_formats)),
            ("MHz", spec.mac_frequency_mhz),
            ("vdd", spec.vdd),
        ):
            axes.setdefault(name, {})[value] = None
    varied = [
        f"{name}[{', '.join(str(v) for v in values)}]"
        for name, values in axes.items()
        if len(values) > 1
    ]
    return (
        f"{len(specs)}-point grid"
        + (": " + " x ".join(varied) if varied else "")
    )


def _number(text: str, integer: bool) -> float:
    text = text.strip()
    try:
        return int(text) if integer else float(text)
    except ValueError:
        kind = "integer" if integer else "number"
        raise SpecificationError(
            f"bad {kind} {text!r} in sweep expression"
        ) from None


def _round(value: float, integer: bool) -> float:
    # 9 decimals snaps 0.6 + 2*0.1 = 0.7999999999999999 back to 0.8 so
    # sweep-produced values hash identically to hand-typed literals.
    return int(round(value)) if integer else round(value, 9)
