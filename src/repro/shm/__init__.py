"""Zero-copy shared-memory transport for read-only compile tensors.

Every pool worker used to re-derive the same two read-only structures
from scratch: the sealed subcircuit library (disk JSON parse per
process) and the compiled :class:`~repro.rtl.netview.NetView` integer
tables of any netlist the parent had already built (a ~50 ms Python
walk per process per module).  This package moves both into
``multiprocessing.shared_memory`` segments published by the batch
parent; workers attach the raw bytes and wrap them in ``numpy``
views without copying.

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
:mod:`repro.shm.netview`
    Per-view NetView integer tables: publish any view the parent has
    built; ``net_view()`` in a worker attaches instead of re-walking
    the module.

See ``docs/performance.md`` (shared-memory section) for naming,
lifecycle, and failure modes.

The package re-exports nothing: import each name from the module that
defines it (``repro.shm.netview``, ...), so a process loads only the
modules it runs.
"""
