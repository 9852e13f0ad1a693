"""Exception hierarchy for the SynDCIM reproduction.

All library-specific failures derive from :class:`SynDCIMError` so callers
can catch compiler problems without masking programming errors.
"""

from __future__ import annotations


class SynDCIMError(Exception):
    """Base class for all errors raised by this library."""


class SpecificationError(SynDCIMError):
    """An input specification is inconsistent or out of supported range."""


class LibraryError(SynDCIMError):
    """A subcircuit-library lookup failed (unknown topology, empty LUT...)."""


class SynthesisError(SynDCIMError):
    """RTL generation or technology mapping failed."""


class TimingError(SynDCIMError):
    """Static timing analysis failed or constraints cannot be met."""


class SearchError(SynDCIMError):
    """The multi-spec-oriented searcher could not produce a feasible design."""


class LayoutError(SynDCIMError):
    """Placement, routing, DRC or LVS failed."""


class SimulationError(SynDCIMError):
    """Functional or gate-level simulation failed."""


class BatchError(SynDCIMError):
    """Batch-engine orchestration failed (unknown resume run id,
    unreadable journal, ...) — distinct from per-job failures, which
    are data (``status="error"`` records), never exceptions."""


class ServiceError(SynDCIMError):
    """A compiler-service interaction failed: an HTTP request was
    rejected or could not reach the server, a poll timed out, or the
    queue refused an operation.  Job *failures* are data (terminal
    ``error``/``timeout`` statuses), never exceptions."""


class UnknownJobError(ServiceError):
    """The queue holds no job under the requested id (HTTP 404)."""


class ShuttingDownError(ServiceError):
    """The queue is closing and accepts no new work (HTTP 503)."""
