"""Job descriptions for the batch engine.

A *job* is everything a worker process needs to reproduce one
compilation: the spec and the flow options.  :class:`CompileJob`, the
one job type, converts to a plain-dict payload for the pool (consumed
by :func:`repro.compiler.syndcim.execute_job`) and to a stable
content-hash :meth:`~CompileJob.key` for deduplication and the on-disk
:class:`~repro.batch.cache.ResultCache`.

Two jobs get the same key iff a compliant compiler would produce the
same record for both — so the key covers the spec, every option that
steers the flow, the process node and the schema version, and nothing
else (no timestamps, no hostnames, no object ids).

The engine may graft *ephemeral* keys onto a payload after hashing
(:data:`EPHEMERAL_PAYLOAD_KEYS`) — per-attempt context the worker
consumes before the job runs.  They are never produced by
:meth:`payload` itself, so the key stays a pure function of the work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict

from ..options import CompileOptions
from ..spec import MacroSpec
from .cache import CACHE_SCHEMA_VERSION

#: Keys the engine may add to a payload *after* hashing: ephemeral
#: per-attempt context (currently the fault-injection coordinates),
#: popped by :func:`repro.compiler.syndcim.execute_job` before the job
#: runs and never part of :meth:`CompileJob.key`.
EPHEMERAL_PAYLOAD_KEYS = ("fault_ctx",)


@dataclass(frozen=True)
class CompileJob:
    """One full search(+implementation) run of a single spec.

    The payload carries every option that steers the flow; the
    execution policy (``job_timeout_s``, ``retries``) stays out of it
    and so out of the key."""

    spec: MacroSpec
    options: CompileOptions = CompileOptions()

    def payload(self) -> Dict[str, object]:
        o = self.options
        return {
            "type": "compile",
            "spec": self.spec.to_dict(),
            "process": o.process,
            "options": {
                "implement": o.implement,
                "input_sparsity": o.input_sparsity,
                "weight_sparsity": o.weight_sparsity,
                "seed": o.seed,
                "corners": None if o.corners is None else list(o.corners),
                "verify": o.verify,
                "verify_vectors": o.verify_vectors,
                "vt": o.vt,
            },
        }

    def key(self) -> str:
        """sha256 over the canonical JSON of (payload, schema, compiler
        version); the payload already carries the process name.

        The version term is what ties "same key" to "same result": when
        a later release changes the estimation or search models, its
        results land under fresh keys instead of being served stale
        from a cache populated by an older compiler.
        """
        from .. import __version__

        keyed = {
            "schema": CACHE_SCHEMA_VERSION,
            "compiler": __version__,
            "payload": self.payload(),
        }
        blob = json.dumps(keyed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()
