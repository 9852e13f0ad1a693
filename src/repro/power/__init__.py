"""Activity-based power estimation.

See ``docs/architecture.md`` for how this package fits the
spec-to-layout pipeline.

The package re-exports nothing: import each name from the module that
defines it (``repro.power.estimator``, ``repro.power.activity``).
"""
