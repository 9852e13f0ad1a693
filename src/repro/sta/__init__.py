"""Static timing analysis over flat gate netlists.

See ``docs/architecture.md`` for how this package fits the
spec-to-layout pipeline.

The package re-exports nothing: import each name from the module that
defines it (``repro.sta.analysis``, ``repro.sta.graph``).
"""
