"""Multi-spec-oriented searching: estimation, fixes, Algorithm 1 and
Pareto utilities.

See ``docs/architecture.md`` for how this package fits the
spec-to-layout pipeline.

The package re-exports nothing: import each name from the module that
defines it (``repro.search.algorithm``, ``repro.search.estimate``,
...), so a process loads only the modules it runs.
"""
