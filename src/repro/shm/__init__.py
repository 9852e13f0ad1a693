"""Zero-copy shared-memory transport for the sealed subcircuit library.

Without it, each pool worker would load the sealed subcircuit
library from its disk JSON artifact.  This package publishes the
library's tensors in a ``multiprocessing.shared_memory`` segment from
the batch parent; workers find the segment by content key, attach the
raw bytes and wrap them in ``numpy`` views without copying.

Layout
------
:mod:`repro.shm.blob`
    Segment lifecycle: content-verified publish/attach, parent-owned
    unlink-on-exit, stale-segment adoption, child-side
    ``resource_tracker`` unregistration (so a worker's exit never
    unlinks a segment it does not own, and never warns about one).
:mod:`repro.shm.tensors`
    The payload format: a JSON meta document plus named ndarrays in
    one contiguous blob, hydrated as read-only zero-copy views.
:mod:`repro.shm.scl`
    Sealed-SCL tensors: publish in the parent, attach in
    ``_worker_initializer`` instead of loading the disk artifact.

See ``docs/performance.md`` (shared-memory section) for naming,
lifecycle, and failure modes.

The package re-exports nothing: import each name from the module that
defines it (``repro.shm.scl``, ...), so a process loads only the
modules it runs.
"""
