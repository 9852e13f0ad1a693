"""One content hash per (spec, options), whichever entry point asks.

The job key is what the result store, in-flight dedup and ``--resume``
share, so these tests pin it exactly: the sha256 of each job below was
computed through ``CompileOptions(...).compile_job(spec)`` — the path
the CLI and the service take — and must not move while the compiler
version stays the same (a moved key strands every stored result).  The
parity tests then check that the batch engine, the service queue and
``compile_job`` agree on that key, and that the engine and the service
hand back the same record for it.
"""

from __future__ import annotations

import pytest

from repro.batch.engine import BatchCompiler
from repro.options import CompileOptions
from repro.service.queue import JobQueue
from repro.spec import spec_from_strings

SPEC = spec_from_strings(16, 8, 1, ["INT4"])

#: name -> (CompileOptions kwargs, pinned sha256 of the compile job).
PINNED = {
    "defaults": (
        {},
        "9d0b1b68e56b7ea903f4a476047261deac174117ff19327961c70f22818e68b9",
    ),
    "search_only": (
        {"implement": False},
        "204bfdaa785b15ce710e5c48861a7b5988afd9b166af2a758671fe788dc32c1b",
    ),
    "signoff3": (
        {"corners": "signoff3"},
        "eb3c02b4ac2286d760ceae0b7cbc0026b830d9e3dbba54ee5bd1babd2b4a74fa",
    ),
    "verify128": (
        {"verify": True, "verify_vectors": 128},
        "100645d8b8d7b42212588e0e9f903190a3e35cf199180eaeb410bd6f5ea45a1d",
    ),
    "vt_auto_seed7": (
        {"vt": "auto", "seed": 7},
        "8f66990ce1acd7477d46dde113b5fecf1fadce743cc87112034328b0d013f526",
    ),
    "input_sparsity": (
        {"input_sparsity": 0.5},
        "ff86f64706ae96782a6a0d2d243f2d5367a5f2624648763c74c45b01b32ab353",
    ),
}

#: Per-run fields, at any depth: store/dedup markers and wall-clock
#: timings (the verification report times its own simulation).
BOOKKEEPING = {"cached", "job_key", "elapsed_s", "vectors_per_s"}


def _without_bookkeeping(value):
    if isinstance(value, dict):
        return {
            k: _without_bookkeeping(v)
            for k, v in value.items()
            if k not in BOOKKEEPING
        }
    if isinstance(value, list):
        return [_without_bookkeeping(v) for v in value]
    return value


@pytest.mark.parametrize("name", sorted(PINNED))
def test_compile_job_key_is_pinned(name):
    kwargs, key = PINNED[name]
    assert CompileOptions(**kwargs).compile_job(SPEC).key() == key


@pytest.mark.parametrize("name", sorted(PINNED))
def test_engine_service_and_compile_job_agree(name):
    """The batch engine and the service queue, both handed the options
    only through ``options=``, key the job as ``compile_job`` does and
    return the same record."""
    kwargs, key = PINNED[name]
    options = CompileOptions(**kwargs)
    batch = BatchCompiler(
        jobs=1, use_cache=False, journal=False, options=options
    ).compile_specs([SPEC])
    (via_engine,) = batch.records
    with JobQueue(
        options=options, use_cache=False, journal=False, workers=1
    ) as queue:
        snap = queue.submit(SPEC)
        via_service = queue.wait(str(snap["id"]), timeout=300)["record"]
    assert via_engine["job_key"] == snap["key"] == key
    assert via_engine["status"] == "ok"
    assert (via_engine["implementation"] is None) == (not options.implement)
    if options.corners:
        # The corner-set name every engine and service record carries.
        signoff = via_engine["implementation"]["signoff"]
        assert signoff["corner_set"] == "batch"
    assert _without_bookkeeping(via_engine) == _without_bookkeeping(
        via_service
    )
