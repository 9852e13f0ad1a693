"""Batch compilation: many specs, one engine, a persistent cache.

The paper's headline is *multi-spec-oriented* compilation — one
compiler serving many (height, width, MCR, format, frequency) points.
This package turns the single-spec :class:`~repro.compiler.syndcim.SynDCIM`
facade into a design-space instrument:

* :mod:`repro.batch.jobs` — :class:`CompileJob`, the content-hashed
  job description;
* :mod:`repro.batch.cache` — the result store, an append-only log
  of one segment per run (``~/.cache/repro`` by default) that makes
  repeated sweeps free;
* :mod:`repro.batch.engine` — :class:`BatchCompiler`: dedup, cache
  lookup, worker processes behind one pipe each, progress reporting;
* :mod:`repro.batch.sweep` — the range grammar (``32:256:x2``)
  expanding CLI axes into spec grids;
* :mod:`repro.batch.summarize` — Pareto/scaling reports over a sweep's
  JSONL records;
* :mod:`repro.batch.resilience` — failure taxonomy,
  :class:`RetryPolicy`, the crash-safe :class:`SweepJournal` behind
  ``--resume``;
* :mod:`repro.batch.faults` — the deterministic ``$REPRO_FAULTS``
  chaos harness (see ``docs/robustness.md``).

See ``docs/architecture.md`` for how this package sits on top of the
search and implementation layers.

The package re-exports nothing: import each name from the module that
defines it (``repro.batch.engine``, ``repro.batch.summarize``, ...),
so a process loads only the modules it runs.
"""
