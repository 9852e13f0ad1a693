"""The batch verification harness: netlist vs golden model at scale.

:func:`verify_macro` runs N MAC cycles of a compiled netlist through
the vectorized testbench and checks every output column of every cycle
against :class:`~repro.sim.functional.DCIMMacroModel`.

Coverage scheduling exploits the batch dimension: within every round,
lanes are striped across the spec's *input formats* and across the MCR
*banks* (per-lane bank select), and both stripes rotate per round — a
round with more than ``n_in * mcr`` lanes covers every (input format,
bank) pair by itself, and smaller budgets still cycle through
everything over successive rounds.  The *weight format* — which owns
the shared weight arrays — cycles across rounds, and the default batch
size is chosen so every weight format gets at least one round.  Each input format's first
lanes lead with its directed corner stimuli (sign, overflow, zero and
FP-alignment extremes), the first rounds of each weight format with
directed weight patterns per bank; the rest are seeded random, so any
failure reproduces from ``(seed, vectors, batch)`` alone.

The result is a structured :class:`VerificationReport`: vectors run,
mismatches (first-failing MAC cycle and output column, expected vs
observed), and throughput — the number the perf harness tracks as
``vecsim_vectors_per_s``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..arch import MacroArchitecture
from ..errors import SimulationError
from ..rtl.gen.macro import MacroShape
from ..spec import MacroSpec
from ..tech.stdcells import StdCellLibrary

#: Default stimulus count: the acceptance bar for one compiled macro.
DEFAULT_VECTORS = 4096


@dataclass(frozen=True)
class Mismatch:
    """One failing (MAC cycle, output column) observation."""

    cycle: int  #: global MAC-cycle index (0-based vector number)
    column: int  #: output group column
    expected: int
    observed: int
    input_format: str
    weight_format: str
    bank: int

    def describe(self) -> str:
        return (
            f"cycle {self.cycle} column {self.column}: expected "
            f"{self.expected}, got {self.observed} "
            f"({self.input_format} x {self.weight_format}, "
            f"bank {self.bank})"
        )


@dataclass
class VerificationReport:
    """Outcome of one :func:`verify_macro` run."""

    spec_summary: str
    vectors_run: int
    mismatch_count: int
    batch: int
    seed: int
    elapsed_s: float
    vectors_per_s: float
    #: First ``max_records`` mismatches in cycle order; ``mismatch_count``
    #: is the uncapped total.
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.mismatch_count == 0

    @property
    def first_failure(self) -> Optional[Mismatch]:
        return self.mismatches[0] if self.mismatches else None

    def to_dict(self) -> Dict[str, object]:
        first = self.first_failure
        return {
            "passed": self.passed,
            "vectors_run": self.vectors_run,
            "mismatch_count": self.mismatch_count,
            "batch": self.batch,
            "seed": self.seed,
            "elapsed_s": round(self.elapsed_s, 4),
            "vectors_per_s": round(self.vectors_per_s, 1),
            "first_failure": (
                None
                if first is None
                else {"cycle": first.cycle, "column": first.column}
            ),
        }

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"verification {verdict}: {self.vectors_run} vectors on "
            f"{self.spec_summary} ({self.vectors_per_s:.0f} vectors/s, "
            f"seed {self.seed})"
        ]
        if not self.passed:
            lines.append(
                f"  {self.mismatch_count} mismatching "
                f"(cycle, column) observations; first failures:"
            )
            for mm in self.mismatches[:5]:
                lines.append(f"    {mm.describe()}")
        return "\n".join(lines)


def verify_macro(
    spec: MacroSpec,
    arch: Optional[MacroArchitecture] = None,
    netlist=None,
    shape: Optional[MacroShape] = None,
    library: Optional[StdCellLibrary] = None,
    vectors: int = DEFAULT_VECTORS,
    seed: int = 0,
    batch: Optional[int] = None,
    max_records: int = 16,
) -> VerificationReport:
    """Verify a macro netlist against the golden model.

    Parameters
    ----------
    netlist:
        A flat macro netlist — digital or physical (see
        :class:`~repro.verify.testbench.VecMacroTestbench`).  ``None``
        generates the digital macro for ``(spec, arch)``.
    vectors:
        Total MAC cycles to run (directed corners first, then seeded
        random).
    batch:
        Lanes evaluated simultaneously; the default caps at 1024 and
        shrinks so every weight format owns at least one round (input
        formats and banks are striped across the lanes of *every*
        round, so they need no extra rounds).
    """
    # The testbench pulls in the simulator; a compile that never
    # verifies never loads it.
    from .stimuli import (
        directed_input_vectors,
        directed_weight_matrices,
        random_input_vectors,
        random_weight_matrix,
    )
    from .testbench import VecMacroTestbench

    arch = arch or MacroArchitecture()
    if vectors < 1:
        raise SimulationError(f"vectors must be positive, got {vectors}")
    in_fmts = list(spec.input_formats)
    w_fmts = list(spec.weight_formats)
    n_in, n_w = len(in_fmts), len(w_fmts)
    if batch is None:
        batch = max(1, min(1024, vectors, -(-vectors // n_w)))
    tb = VecMacroTestbench(
        spec, arch, batch=batch, netlist=netlist, shape=shape,
        library=library,
    )
    rng = np.random.default_rng(seed)
    height, groups = spec.height, tb.model.n_groups
    directed_w = {
        fmt.name: directed_weight_matrices(height, groups, fmt)
        for fmt in w_fmts
    }

    mismatches: List[Mismatch] = []
    mismatch_count = 0
    offset = 0
    round_i = 0
    #: Formats whose directed input corners have already led a round —
    #: with batches smaller than n_in, a format's first lanes may only
    #: appear in a later round.
    corners_done = [False] * n_in
    t0 = time.perf_counter()
    while offset < vectors:
        n = min(batch, vectors - offset)
        w_fmt = w_fmts[round_i % n_w]

        # Every bank gets fresh weights each round: directed patterns
        # first (spread over (round, bank) so each bank sees them),
        # then seeded random draws.
        patterns = directed_w[w_fmt.name]
        for bank in range(spec.mcr):
            pat = (round_i // n_w) * spec.mcr + bank
            if pat < len(patterns):
                weights = patterns[pat]
            else:
                weights = random_weight_matrix(rng, height, groups, w_fmt)
            tb.load_weights(bank, weights, w_fmt)

        # Stripe lanes across input formats and (independently) across
        # banks.  Both stripes rotate per round, so even a batch
        # smaller than the format/bank count cycles through everything
        # over successive rounds; a round with more than n_in * mcr
        # lanes covers every (input format, bank) pair by itself.
        lane = np.arange(n)
        fmt_idx = (lane + round_i) % n_in
        banks = ((lane // n_in) + round_i) % spec.mcr
        xs = np.zeros((n, height), dtype=np.int64)
        for fi, in_fmt in enumerate(in_fmts):
            lanes = np.nonzero(fmt_idx == fi)[0]
            if not len(lanes):
                continue
            draws = random_input_vectors(rng, height, in_fmt, len(lanes))
            if not corners_done[fi]:
                corners = directed_input_vectors(height, in_fmt)
                take = min(len(corners), len(lanes))
                draws[:take] = corners[:take]
                corners_done[fi] = True
            xs[lanes] = draws

        observed = tb.run_mac(xs, banks)
        expected = tb.expected(xs, banks)
        bad = observed != expected
        if bad.any():
            mismatch_count += int(bad.sum())
            lanes, cols = np.nonzero(bad)
            for lane, col in zip(lanes, cols):
                if len(mismatches) >= max_records:
                    break
                mismatches.append(
                    Mismatch(
                        cycle=offset + int(lane),
                        column=int(col),
                        expected=int(expected[lane, col]),
                        observed=int(observed[lane, col]),
                        input_format=in_fmts[int(fmt_idx[lane])].name,
                        weight_format=w_fmt.name,
                        bank=int(banks[lane]),
                    )
                )
        offset += n
        round_i += 1
    elapsed = time.perf_counter() - t0

    return VerificationReport(
        spec_summary=spec.describe(),
        vectors_run=offset,
        mismatch_count=mismatch_count,
        batch=batch,
        seed=seed,
        elapsed_s=elapsed,
        vectors_per_s=offset / elapsed if elapsed > 0 else float("inf"),
        mismatches=mismatches,
    )
