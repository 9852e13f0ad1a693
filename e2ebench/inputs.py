"""Seeded inputs for the three workloads, and the canonical form of every
output the benchmark checks against ``expected.json``.

The program only ever sees the specs built here.  A seed changes the
order of the inputs and which pool members are drawn, never the shares
of the operation classes, and every spec any seed can draw is pinned in
``expected.json`` (see ``make_expected.py``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from typing import Dict, List, Tuple

from repro.spec import MacroSpec, parse_format

# -- cli-compile -------------------------------------------------------------

#: The five paper specs of the ``cli-compile`` cycle, as ``repro compile``
#: arguments.  ``{out}`` is replaced by the run's output directory.
CLI_INPUTS: Dict[str, List[str]] = {
    "fig8": [
        "--height", "64", "--width", "64",
        "--formats", "INT4", "INT8", "FP4", "FP8", "--frequency", "800",
        "--verilog", "{out}/fig8.v", "--gds", "{out}/fig8.gds",
    ],
    "testchip": [
        "--height", "64", "--width", "64",
        "--formats", "INT1", "INT2", "INT4", "INT8", "FP4", "FP8",
        "--frequency", "800", "--corners", "signoff3", "--verify",
    ],
    "fig7": [
        "--height", "32", "--width", "32",
        "--formats", "INT4", "INT8", "FP8", "BF16", "--frequency", "500",
    ],
    "vt-auto": ["--height", "64", "--width", "64", "--vt", "auto"],
    "wide128": ["--height", "128", "--width", "64", "--frequency", "400"],
}

#: Output files each CLI input writes, checked by sha256.
CLI_FILES: Dict[str, List[str]] = {"fig8": ["fig8.v", "fig8.gds"]}


def cli_argv(name: str, out_dir: str) -> List[str]:
    return ["compile"] + [a.replace("{out}", out_dir) for a in CLI_INPUTS[name]]


def cli_order(seed: int) -> List[str]:
    """The seeded order of one cycle over the five inputs."""
    names = sorted(CLI_INPUTS)
    random.Random(seed).shuffle(names)
    return names


_RATE = re.compile(r"\(\d+ vectors/s, ")


def normalize_report(stdout: str) -> str:
    """The ``repro compile`` report with path lines dropped and the
    measured verification rate masked — everything left is
    deterministic."""
    lines = [ln for ln in stdout.splitlines() if not ln.startswith("wrote ")]
    return _RATE.sub("(<rate> vectors/s, ", "\n".join(lines))


# -- spec pools --------------------------------------------------------------

SWEEP_FORMAT_SETS = (("INT4", "INT8"), ("INT8", "FP8"), ("INT4", "INT8", "FP8", "BF16"))
IMPL_FORMAT_SETS = (("INT4", "INT8"), ("INT8",), ("INT4", "INT8", "FP8"))


def _spec(h: int, w: int, mcr: int, formats, mhz: float, vdd: float) -> MacroSpec:
    fmts = tuple(parse_format(f) for f in formats)
    return MacroSpec(
        height=h, width=w, mcr=mcr, input_formats=fmts, weight_formats=fmts,
        mac_frequency_mhz=float(mhz), vdd=vdd,
    )


def sweep_grid() -> List[MacroSpec]:
    """The 1,200-point ``dse-sweep`` grid, in a fixed base order."""
    sizes = (16, 32, 64, 128, 256)
    return [
        _spec(*point)
        for point in itertools.product(
            sizes, sizes, (1, 2), SWEEP_FORMAT_SETS, (200, 400, 600, 800), (0.9, 1.1)
        )
    ]


def implemented_pool() -> List[MacroSpec]:
    """The 216 small macros ``service-mix`` implements (all feasible)."""
    sizes = (8, 16, 32)
    return [
        _spec(*point)
        for point in itertools.product(
            sizes, sizes, (1, 2), IMPL_FORMAT_SETS, (200, 300), (0.9, 1.1)
        )
    ]


def sweep_order(seed: int) -> List[MacroSpec]:
    specs = sweep_grid()
    random.Random(seed).shuffle(specs)
    return specs


# -- service-mix -------------------------------------------------------------

#: One block of the service operation list: three search-only misses per
#: implemented miss, and one hit per miss, as in the repo's own loops:
#: ``examples/design_space_exploration.py`` re-runs its cached sweep
#: (each point once more, all hits) and ``examples/service_smoke.py``
#: submits two compiles and two hits.
SERVICE_BLOCK = {"search": 3, "implemented": 1, "hit": 4}
#: Warm-up points compiled before timing starts (the hits' targets), in
#: the misses' 3:1 split.  A hit reads one stored record whether or not
#: it was read before (measured: first-time and repeated hits within 4 %
#: of each other), so the size only sets the untimed warm-up's length.
WARMUP = {"search": 48, "implemented": 16}

Op = Tuple[str, MacroSpec, bool]  # (class, spec, implement)


def _size_key(spec: MacroSpec):
    return (
        spec.height * spec.width * spec.mcr,
        len(spec.input_formats),
        spec.mac_frequency_mhz,
        spec.vdd,
        spec.content_hash(),
    )


def _spread_draw(rng: random.Random, pool: List[MacroSpec], n: int):
    """Draw ``n`` members of ``pool`` spread evenly over its size order —
    one seeded pick from each of ``n`` equal slices — so every seed draws
    the same mix of macro sizes.  Returns (drawn, the rest)."""
    ordered = sorted(pool, key=_size_key)
    bounds = [round(i * len(ordered) / n) for i in range(n + 1)]
    picks = {rng.randrange(lo, hi) for lo, hi in zip(bounds, bounds[1:])}
    drawn = [s for i, s in enumerate(ordered) if i in picks]
    rest = [s for i, s in enumerate(ordered) if i not in picks]
    return drawn, rest


def max_service_blocks() -> int:
    """The most blocks whose misses the pools cover, each miss unique."""
    return min(
        (len(sweep_grid()) - WARMUP["search"]) // SERVICE_BLOCK["search"],
        (len(implemented_pool()) - WARMUP["implemented"]) // SERVICE_BLOCK["implemented"],
    )


def service_plan(seed: int, blocks: int) -> Tuple[List[Op], List[Op]]:
    """``(warmup, ops)``: the untimed warm-up submissions, then the timed
    operation list of ``blocks`` blocks in seeded order.  Misses are drawn
    without replacement and never overlap the warm-up, so no operation
    changes class or coalesces because of timing; ``blocks`` may not
    exceed :func:`max_service_blocks`."""
    if blocks > max_service_blocks():
        raise ValueError(f"{blocks} blocks of unique misses; the pools cover {max_service_blocks()}")
    rng = random.Random(seed)
    warm_search, rest = _spread_draw(rng, sweep_grid(), WARMUP["search"])
    miss_search, _ = _spread_draw(rng, rest, SERVICE_BLOCK["search"] * blocks)
    warm_impl, rest = _spread_draw(rng, implemented_pool(), WARMUP["implemented"])
    miss_impl, _ = _spread_draw(rng, rest, SERVICE_BLOCK["implemented"] * blocks)
    warmup = [("search", s, False) for s in warm_search] + [
        ("implemented", s, True) for s in warm_impl
    ]
    # Hits keep the misses' 3:1 split between search-only and
    # implemented records, so the share of large records never moves.
    hit_search = SERVICE_BLOCK["hit"] * blocks * 3 // 4
    hits = [(s, False) for s in rng.choices(warm_search, k=hit_search)] + [
        (s, True)
        for s in rng.choices(warm_impl, k=SERVICE_BLOCK["hit"] * blocks - hit_search)
    ]
    ops = (
        [("search", s, False) for s in miss_search]
        + [("implemented", s, True) for s in miss_impl]
        + [("hit", spec, implement) for spec, implement in hits]
    )
    rng.shuffle(ops)
    return warmup, ops


# -- canonical records -------------------------------------------------------

#: Fields that carry measured time or per-run bookkeeping, not results.
_TIMING = ("elapsed_s",)
_BOOKKEEPING = ("cached", "job_key", "attempts", "retry_history", "resumed")
_VERIFY_TIMING = ("elapsed_s", "vectors_per_s")


def canonical(record: Dict[str, object]) -> str:
    """sha256 of the record with timing and bookkeeping fields removed,
    as sorted-key JSON (floats by ``repr``, so the digest is exact)."""
    rec = {k: v for k, v in record.items() if k not in _TIMING + _BOOKKEEPING}
    impl = rec.get("implementation")
    if isinstance(impl, dict) and isinstance(impl.get("verification"), dict):
        verification = {
            k: v for k, v in impl["verification"].items() if k not in _VERIFY_TIMING
        }
        rec["implementation"] = dict(impl, verification=verification)
    blob = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def expected_key(spec: MacroSpec, implement: bool) -> str:
    return ("impl:" if implement else "search:") + spec.content_hash()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
