"""Golden search-only records: the cases, their canonical form and the
generator behind ``make golden``.

    PYTHONPATH=src python tests/golden_search.py

rewrites ``tests/data/golden_search.jsonl``; ``test_golden_search.py``
asserts that every case still produces exactly its pinned line.  The
cases cover what the end-to-end benchmark's ``expected.json`` does not
pin: Vt policies other than svt, signoff corners, the PPA presets, a
search-order seed, MCR 4 and 8, narrow and FP format mixes, the height 8
and 16 limits of column splitting and OAI22, and infeasible specs.

A line is ``{"case", "options", "record"}`` as sorted-key JSON, floats by
``repr``; the record drops the timing and bookkeeping fields the same way
the benchmark's canonical form does, so any changed number shows up as a
changed line.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, List, Tuple

from repro.options import PPA_PRESETS, CompileOptions
from repro.spec import MacroSpec, parse_format

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "data" / "golden_search.jsonl"

#: Fields that carry measured time or per-run bookkeeping, not results.
_DROPPED = ("elapsed_s", "cached", "job_key", "attempts", "retry_history", "resumed")


def _spec(h: int, w: int, mcr: int, formats: str, mhz: float,
          weights: str = "", vdd: float = 0.9, ppa: str = "balanced") -> MacroSpec:
    inputs = tuple(parse_format(f) for f in formats.split("/"))
    weight_formats = (
        tuple(parse_format(f) for f in weights.split("/")) if weights else inputs
    )
    return MacroSpec(
        height=h, width=w, mcr=mcr, input_formats=inputs,
        weight_formats=weight_formats, mac_frequency_mhz=float(mhz), vdd=vdd,
        ppa=PPA_PRESETS[ppa],
    )


_A = _spec(32, 32, 2, "INT4/INT8", 600)
_B = _spec(64, 64, 2, "INT4/INT8/FP4/FP8", 800)
_C = _spec(16, 64, 1, "INT8", 400)

#: ``(case id, spec, CompileOptions keyword arguments)``.
CASES: List[Tuple[str, MacroSpec, Dict[str, object]]] = [
    *[(f"vt-{vt}-{name}", spec, {"vt": vt})
      for vt in ("auto", "lvt", "hvt", "ulvt")
      for name, spec in (("a", _A), ("b", _B), ("c", _C))],
    ("vt-auto-tight", _spec(128, 64, 2, "INT8", 900), {"vt": "auto"}),
    ("vt-hvt-tight", _spec(128, 64, 2, "INT8", 900), {"vt": "hvt"}),
    ("corners-signoff3-a", _A, {"corners": "signoff3"}),
    ("corners-signoff3-b", _B, {"corners": "signoff3"}),
    ("corners-signoff3-h8", _spec(8, 8, 2, "INT4", 400), {"corners": "signoff3"}),
    ("corners-typical-a", _A, {"corners": "typical"}),
    ("corners-typical-c", _C, {"corners": "typical"}),
    ("corners-signoff3-vt-auto", _A, {"corners": "signoff3", "vt": "auto"}),
    ("corners-signoff3-tight", _spec(64, 32, 1, "INT8", 1000), {"corners": "signoff3"}),
    *[(f"ppa-{preset}-{name}", _spec(*shape, ppa=preset), {})
      for preset in sorted(PPA_PRESETS)
      for name, shape in (("64x32", (64, 32, 2, "INT4/INT8", 500)),
                          ("16x16", (16, 16, 1, "INT8/FP8", 300)))],
    ("seed-1-a", _A, {"seed": 1}),
    ("seed-7-a", _A, {"seed": 7}),
    ("seed-3-b", _B, {"seed": 3}),
    ("mcr4-32x32", _spec(32, 32, 4, "INT4/INT8", 600), {}),
    ("mcr4-64x16", _spec(64, 16, 4, "INT8", 800), {}),
    ("mcr8-16x16", _spec(16, 16, 8, "INT4", 300), {}),
    ("fmt-int1-w", _spec(16, 16, 2, "INT2", 400, weights="INT1"), {}),
    ("fmt-int1-int2", _spec(32, 32, 2, "INT1/INT2", 600), {}),
    ("fmt-int2-fp4", _spec(16, 32, 2, "INT2/FP4", 500), {}),
    ("fmt-fp4", _spec(32, 16, 1, "FP4", 800), {}),
    ("fmt-bf16", _spec(64, 64, 2, "BF16", 400), {}),
    ("fmt-int1-bf16", _spec(32, 32, 1, "INT1/BF16", 300), {}),
    ("fmt-int2-int4-bf16", _spec(64, 32, 2, "INT2/INT4/BF16", 600), {}),
    ("fmt-fp4-fp8-bf16", _spec(128, 128, 2, "FP4/FP8/BF16", 500), {}),
    ("fmt-int1-int2-w", _spec(32, 32, 2, "INT4/INT8", 600, weights="INT1/INT2"), {}),
    ("fmt-bf16-in-int4-w", _spec(16, 64, 2, "BF16", 500, weights="INT4"), {}),
    ("h8-8x8", _spec(8, 8, 2, "INT4", 400), {}),
    ("h8-8x16", _spec(8, 16, 1, "INT8", 700), {}),
    ("h8-8x32-fast", _spec(8, 32, 2, "INT4/INT8", 1000), {}),
    ("h8-mcr4", _spec(8, 8, 4, "INT4", 300), {}),
    ("h16-16x16-fast", _spec(16, 16, 2, "INT4", 1200), {}),
    ("h16-16x8", _spec(16, 8, 2, "INT8", 900), {}),
    ("h16-mcr4", _spec(16, 32, 4, "INT4/INT8", 700), {}),
    ("h4-4x8", _spec(4, 8, 1, "INT4", 500), {}),
    ("vdd-1.1", _spec(32, 32, 2, "INT4", 600, vdd=1.1), {}),
    ("large-256x256", _spec(256, 256, 2, "INT4/INT8", 400), {}),
    ("infeasible-256x64", _spec(256, 64, 2, "INT8", 5000), {}),
    ("infeasible-8x8", _spec(8, 8, 2, "INT4", 4000), {}),
    ("infeasible-bf16", _spec(64, 64, 2, "BF16", 2500), {}),
    ("infeasible-hvt", _spec(128, 64, 2, "INT8", 1400), {"vt": "hvt"}),
    ("infeasible-signoff3", _spec(256, 64, 2, "INT8", 5000), {"corners": "signoff3"}),
]


def canonical_record(record: Dict[str, object]) -> Dict[str, object]:
    """``record`` without its timing and bookkeeping fields."""
    return {k: v for k, v in record.items() if k not in _DROPPED}


def golden_line(case: str, spec: MacroSpec, options: Dict[str, object]) -> str:
    """The pinned line of one case, computed in this process."""
    from repro.compiler.syndcim import execute_job

    job = CompileOptions(implement=False, **options).compile_job(spec)
    record = canonical_record(execute_job(job.payload()))
    return json.dumps(
        {"case": case, "options": options, "record": record},
        sort_keys=True, separators=(",", ":"),
    )


def main() -> int:
    lines = [golden_line(*case) for case in CASES]
    GOLDEN_PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} records to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
