"""Subcircuit library (SCL): PPA lookup tables over topology, dimension
and timing-relevant variants.

See ``docs/architecture.md`` for how this package fits the
spec-to-layout pipeline, and ``docs/performance.md`` for the persistent
characterization cache (:mod:`repro.scl.cache`).

The package re-exports nothing: import each name from the module that
defines it (``repro.scl.library``, ``repro.scl.builder``, ...), so a
process loads only the modules it runs.
"""
