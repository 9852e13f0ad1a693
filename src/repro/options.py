"""The canonical compile-options layer.

Every entry point into the compiler — the :class:`~repro.compiler.
syndcim.SynDCIM` facade, the :class:`~repro.batch.engine.BatchCompiler`
batch engine, the ``repro``/``syndcim`` CLI and the
:mod:`repro.service` HTTP API — historically spelled the same options
slightly differently (``corners`` as a ``CornerSet`` here, a name tuple
there, a comma string on the command line).  :class:`CompileOptions` is
the one place those spellings converge: a frozen dataclass whose
constructor *normalizes* every accepted spelling into one canonical
form, so two entry points handed equivalent options always produce the
same :meth:`~repro.batch.jobs.CompileJob.key` — and therefore share
cache entries, dedup against each other and mean the same thing in a
record.

Accepted spellings
------------------
``corners``
    ``None`` (nominal-only), a preset name (``"typical"``,
    ``"signoff3"``), a comma-separated corner list (``"SS,TT,FF"``), an
    iterable of corner names, or a
    :class:`~repro.signoff.corners.CornerSet` — all normalized to a
    tuple of upper-case corner names (validated against the registry).
``vt``
    One of :data:`VT_CHOICES` (``svt``/``hvt``/``lvt``/``ulvt`` or
    ``auto``).

Everything here is stdlib-only and numpy-free on import (the CLI parses
``--help`` through this module), with corner/process validation
imported lazily.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import SpecificationError
from .spec import PPAWeights

#: Threshold-flavor policies the search and implement flow accept.
VT_CHOICES = ("svt", "hvt", "lvt", "ulvt", "auto")

#: Mirrors :data:`repro.verify.harness.DEFAULT_VECTORS` as a literal —
#: importing it would pull numpy into every CLI/service startup; the
#: cross-check lives in tests/test_verify.py.
DEFAULT_VERIFY_VECTORS = 4096

#: Default process node name (mirrors ``GENERIC_40NM.name`` — the
#: registry itself lives in :mod:`repro.tech.process` and is consulted
#: lazily so this module stays import-light).
DEFAULT_PROCESS = "generic40"

#: Named PPA-preference presets shared by the CLI (``--ppa``) and the
#: service sweep route, so both spell selection weights identically.
PPA_PRESETS: Dict[str, PPAWeights] = {
    "balanced": PPAWeights(),
    "energy": PPAWeights(power=3.0, performance=1.0, area=1.0),
    "area": PPAWeights(power=1.0, performance=1.0, area=3.0),
    "performance": PPAWeights(power=1.0, performance=3.0, area=1.0),
}

CornersLike = Union[None, str, Iterable[str], "CornerSet"]  # noqa: F821


@dataclass(frozen=True)
class CompileOptions:
    """Everything that steers one compilation besides the spec itself.

    Frozen and canonical: the constructor normalizes (and validates)
    every field, so equal options compare equal regardless of which
    spelling built them, and :meth:`compile_job` keys the cache
    identically from every entry point.

    Fields
    ------
    process:
        Registered process-node name (resolution is by name so options
        serialize; an unknown name fails in :meth:`validate`/the
        worker, exactly like the batch payload path).
    corners:
        Signoff corner names (see module docstring for accepted
        spellings), or ``None`` for nominal-only.
    vt:
        Threshold-flavor policy, one of :data:`VT_CHOICES`.
    verify / verify_vectors:
        Post-synthesis functional verification against the golden
        model, and its stimulus count.
    seed:
        Search-order seed (part of the cache key).
    implement:
        ``False`` stops after search + selection (milliseconds; no
        netlist/layout).
    input_sparsity / weight_sparsity:
        Activity statistics forwarded to power estimation.
    job_timeout_s:
        Per-job watchdog deadline for pooled execution (``None``
        disables the watchdog).  Execution policy — never part of the
        job key.
    retries:
        Transient-failure retry budget per job (execution policy, not
        part of the key); :meth:`retry_policy` renders it as the
        engine's :class:`~repro.batch.resilience.RetryPolicy`.
    """

    process: str = DEFAULT_PROCESS
    corners: Optional[Tuple[str, ...]] = None
    vt: str = "svt"
    verify: bool = False
    verify_vectors: int = DEFAULT_VERIFY_VECTORS
    seed: Optional[int] = None
    implement: bool = True
    input_sparsity: float = 0.0
    weight_sparsity: float = 0.0
    job_timeout_s: Optional[float] = None
    retries: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "corners", _normalize_corners(self.corners))
        if self.vt not in VT_CHOICES:
            raise SpecificationError(
                f"unknown vt policy {self.vt!r}; "
                f"choose one of {', '.join(VT_CHOICES)}"
            )
        # Types are checked, not coerced: the key hashes the value as
        # given, so "false" must not stand in for False.
        for name in ("implement", "verify"):
            if not isinstance(getattr(self, name), bool):
                raise SpecificationError(f"{name} must be true or false")
        for name in ("verify_vectors", "retries"):
            if not _is_int(getattr(self, name)):
                raise SpecificationError(f"{name} must be an integer")
        if self.verify_vectors < 1:
            raise SpecificationError("verify_vectors must be >= 1")
        if self.seed is not None and not _is_int(self.seed):
            raise SpecificationError("seed must be an integer or None")
        for name in ("input_sparsity", "weight_sparsity"):
            value = getattr(self, name)
            # Stored as float(value) so an int keys like its float; the
            # chained comparison also refuses NaN.
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0.0 <= value <= 1.0
            ):
                raise SpecificationError(f"{name} must be a number in [0, 1]")
            object.__setattr__(self, name, float(value))
        timeout = self.job_timeout_s
        # The chained comparison refuses NaN, infinity and an integer
        # too large for a float (the dispatcher adds it to a clock).
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not 0 < timeout <= sys.float_info.max
        ):
            raise SpecificationError(
                "job_timeout_s must be a positive number or None"
            )
        if self.retries < 0:
            raise SpecificationError("retries must be >= 0")
        if not self.process or not isinstance(self.process, str):
            raise SpecificationError("process must be a non-empty name")

    # -- derived views ------------------------------------------------------

    def replace(self, **changes: object) -> "CompileOptions":
        """A copy with the given fields changed (re-normalized)."""
        return dataclasses.replace(self, **changes)

    def corner_set(self):
        """The resolved :class:`~repro.signoff.corners.CornerSet`, or
        ``None`` when running nominal-only.  Named ``"batch"``, the
        ``signoff.corner_set`` every engine and service record carries."""
        if not self.corners:
            return None
        from .signoff.corners import CornerSet

        return CornerSet.from_names(self.corners, name="batch")

    def resolve_process(self):
        """The registered :class:`~repro.tech.process.Process`; raises
        for unknown names."""
        from .tech.process import process_by_name

        return process_by_name(self.process)

    def validate(self) -> "CompileOptions":
        """Resolve every lazily-checked name (process, corners) now —
        the arm-time check HTTP submission and the CLI use so a typo
        fails the request, not a worker.  Returns self for chaining."""
        self.resolve_process()
        self.corner_set()
        return self

    def retry_policy(self):
        """The executor's :class:`~repro.batch.resilience.RetryPolicy`
        for this retry budget: exponential backoff from 0.5 s, with 10 %
        jitter, for batch and service jobs alike."""
        from .batch.resilience import RetryPolicy

        return RetryPolicy(
            max_attempts=self.retries + 1, backoff_s=0.5, jitter=0.1
        )

    def compile_job(self, spec):
        """The :class:`~repro.batch.jobs.CompileJob` for ``spec`` under
        these options — the single place a (spec, options) pair becomes
        a content hash, shared by the batch engine and the service."""
        from .batch.jobs import CompileJob

        return CompileJob(spec, self)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "process": self.process,
            "corners": None if self.corners is None else list(self.corners),
            "vt": self.vt,
            "verify": self.verify,
            "verify_vectors": self.verify_vectors,
            "seed": self.seed,
            "implement": self.implement,
            "input_sparsity": self.input_sparsity,
            "weight_sparsity": self.weight_sparsity,
            "job_timeout_s": self.job_timeout_s,
            "retries": self.retries,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CompileOptions":
        """Build from a plain dict (the HTTP request parser).  Unknown
        keys raise — a misspelled option in a job submission must be a
        400, not a silently-defaulted field."""
        if not isinstance(data, Mapping):
            raise SpecificationError("options must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecificationError(
                f"unknown option(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        kwargs = dict(data)
        corners = kwargs.get("corners")
        if isinstance(corners, list):
            kwargs["corners"] = tuple(str(c) for c in corners)
        try:
            return cls(**kwargs)  # type: ignore[arg-type]
        except TypeError as exc:
            raise SpecificationError(f"bad options: {exc}") from None


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _normalize_corners(value: CornersLike) -> Optional[Tuple[str, ...]]:
    """Normalize every accepted ``corners`` spelling to a validated
    tuple of registered corner names (or ``None``)."""
    if value is None:
        return None
    from .signoff.corners import CornerSet, parse_corners

    if isinstance(value, CornerSet):
        return value.names
    if isinstance(value, str):
        return parse_corners(value).names
    try:
        names = [str(v) for v in value]
    except TypeError:
        raise SpecificationError(
            f"corners must be None, a string, a name sequence or a "
            f"CornerSet, not {type(value).__name__}"
        ) from None
    return CornerSet.from_names(names, name="options").names
