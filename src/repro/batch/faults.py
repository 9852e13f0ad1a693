"""Deterministic fault injection: the batch engine's chaos harness.

A resilient batch engine is only trustworthy if its recovery paths run
in CI, not just in production incidents.  This module turns worker
crashes, hangs and cache corruption into *scheduled, reproducible*
events::

    REPRO_FAULTS=crash:0.2,hang:0.1,corrupt_cache:0.1 \\
        python -m repro sweep --height 8:64:x2 ...

Fault kinds
-----------
``crash``
    The worker calls ``os._exit(70)`` before running its job — the
    process dies without cleanup, exactly like an OOM kill or a
    segfault.  The parent reads EOF on that worker's pipe and charges
    the job it held, and only that job (transient → retried in a fresh
    worker).
``hang``
    The worker sleeps ``$REPRO_FAULT_HANG_S`` seconds (default 60)
    before running — long enough to trip any sane ``--job-timeout``,
    driving the watchdog's path: that worker alone is killed and
    replaced.
``raise``
    The worker raises :class:`FaultInjected` from the job function
    itself and stays alive — the job-raised branch (transient →
    retried).
``corrupt_cache``
    The result store damages the ``done`` line it just wrote, in place,
    so the *next* lookup exercises the quarantine path.

Determinism
-----------
Every decision is a pure function of
``(REPRO_FAULT_SEED, kind, job key, attempt)`` — no global RNG state,
no wall clock.  The parent and every worker (fork or spawn) compute
identical draws, so the engine can annotate records with the fault it
*knows* was injected, and a test can predict exactly which jobs fail.
Because the attempt number is part of the draw, a probabilistic fault
need not recur on retry; the ``:first`` limiter (``crash:1.0:first``)
pins a fault to attempt 1 only — the deterministic way to script
"fail once, then succeed on retry".

See ``docs/robustness.md`` for the cookbook.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..errors import SpecificationError

#: Environment variables steering the harness.
ENV_FAULTS = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULT_SEED"
ENV_HANG_S = "REPRO_FAULT_HANG_S"

#: Every fault kind the grammar accepts.  The first three run in the
#: worker (ordered: a job can only die one way per attempt); the last
#: runs wherever the result cache stores records.
WORKER_KINDS = ("crash", "hang", "raise")
KINDS = WORKER_KINDS + ("corrupt_cache",)

#: Exit status of an injected crash — distinctive in process listings.
CRASH_EXIT_CODE = 70


class FaultInjected(RuntimeError):
    """Raised by the ``raise`` fault kind inside a worker."""


@dataclass(frozen=True)
class FaultRule:
    """One armed fault kind: fire with ``probability`` per (key,
    attempt) draw; ``first_attempt_only`` restricts it to attempt 1."""

    kind: str
    probability: float
    first_attempt_only: bool = False


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, immutable fault schedule (see module docstring)."""

    rules: Mapping[str, FaultRule] = field(default_factory=dict)
    seed: int = 0
    hang_s: float = 60.0

    @classmethod
    def parse(
        cls, text: str, seed: int = 0, hang_s: float = 60.0
    ) -> "FaultPlan":
        """Parse ``kind:prob[,kind:prob[:first],...]``.

        Raises :class:`~repro.errors.SpecificationError` on unknown
        kinds, unparsable probabilities or probabilities outside
        ``[0, 1]`` — a typo'd chaos run must fail loudly, not run
        clean and "pass".
        """
        rules: Dict[str, FaultRule] = {}
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            parts = token.split(":")
            if len(parts) not in (2, 3):
                raise SpecificationError(
                    f"fault spec {token!r}: expected kind:prob[:first]"
                )
            kind = parts[0].strip()
            if kind not in KINDS:
                raise SpecificationError(
                    f"fault spec {token!r}: unknown kind {kind!r} "
                    f"(known: {', '.join(KINDS)})"
                )
            try:
                probability = float(parts[1])
            except ValueError:
                raise SpecificationError(
                    f"fault spec {token!r}: bad probability {parts[1]!r}"
                ) from None
            if not 0.0 <= probability <= 1.0:
                raise SpecificationError(
                    f"fault spec {token!r}: probability must be in [0, 1]"
                )
            first = False
            if len(parts) == 3:
                if parts[2].strip() != "first":
                    raise SpecificationError(
                        f"fault spec {token!r}: unknown limiter "
                        f"{parts[2]!r} (only 'first')"
                    )
                first = True
            rules[kind] = FaultRule(kind, probability, first)
        return cls(rules=rules, seed=seed, hang_s=hang_s)

    def should(self, kind: str, key: str, attempt: int = 1) -> bool:
        """Deterministic verdict: does ``kind`` fire for this
        (job key, attempt)?  Parent and workers agree by construction."""
        rule = self.rules.get(kind)
        if rule is None or rule.probability <= 0.0:
            return False
        if rule.first_attempt_only and attempt > 1:
            return False
        return _draw(self.seed, kind, key, attempt) < rule.probability

    def planned(self, key: str, attempt: int) -> Optional[str]:
        """The worker-side fault (if any) scheduled for this attempt —
        what the engine stamps into ``record["fault"]``.  Mirrors the
        order :func:`inject_worker_faults` checks, so the annotation
        names the fault that actually fired."""
        for kind in WORKER_KINDS:
            if self.should(kind, key, attempt):
                return kind
        return None

    def describe(self) -> str:
        armed = ", ".join(
            f"{r.kind}:{r.probability:g}" + (":first" if r.first_attempt_only else "")
            for r in self.rules.values()
        )
        return f"faults armed ({armed}; seed {self.seed})"


def _draw(seed: int, kind: str, key: str, attempt: int) -> float:
    """Uniform [0, 1) from a sha256 of the decision coordinates —
    stable across processes, platforms and PYTHONHASHSEED."""
    blob = f"{seed}:{kind}:{key}:{attempt}".encode()
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


# -- environment resolution --------------------------------------------------

#: (env signature, parsed plan) — re-parsed only when the environment
#: actually changes, so the per-record cache hook costs a dict lookup.
_CACHED_SIG: Optional[Tuple[Optional[str], ...]] = None
_CACHED_PLAN: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan armed by ``$REPRO_FAULTS``, or ``None`` (the default,
    fault-free world).  A malformed spec warns once and disarms rather
    than killing whatever process asked — workers must never die to a
    typo'd environment; arm-time validation belongs to the caller (the
    CLI and tests call :meth:`FaultPlan.parse` directly)."""
    global _CACHED_SIG, _CACHED_PLAN
    sig = (
        os.environ.get(ENV_FAULTS),
        os.environ.get(ENV_SEED),
        os.environ.get(ENV_HANG_S),
    )
    if sig == _CACHED_SIG:
        return _CACHED_PLAN
    _CACHED_SIG = sig
    text, seed_text, hang_text = sig
    if not text:
        _CACHED_PLAN = None
        return None
    try:
        seed = int(seed_text) if seed_text else 0
        hang_s = float(hang_text) if hang_text else 60.0
        _CACHED_PLAN = FaultPlan.parse(text, seed=seed, hang_s=hang_s)
    except (SpecificationError, ValueError) as exc:
        warnings.warn(
            f"repro: ignoring malformed {ENV_FAULTS}={text!r} ({exc})",
            RuntimeWarning,
            stacklevel=2,
        )
        _CACHED_PLAN = None
    return _CACHED_PLAN


def inject_worker_faults(key: str, attempt: int) -> None:
    """Worker-side entry point, called by
    :func:`repro.compiler.syndcim.execute_job` before the job runs
    (and only when the engine attached fault context — inline runs in
    the parent process are never crashed).

    At most one fault fires per attempt, in :data:`WORKER_KINDS`
    order; ``hang`` sleeps then *continues*, so without a watchdog the
    job merely finishes late instead of wedging forever.
    """
    plan = active_plan()
    if plan is None:
        return
    if plan.should("crash", key, attempt):
        os._exit(CRASH_EXIT_CODE)
    if plan.should("hang", key, attempt):
        time.sleep(plan.hang_s)
    if plan.should("raise", key, attempt):
        raise FaultInjected(
            f"injected worker fault: raise (key {key[:12]}, "
            f"attempt {attempt})"
        )
