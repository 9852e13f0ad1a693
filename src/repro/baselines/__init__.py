"""Baseline compilers and published-macro models for the comparisons.

See ``docs/architecture.md`` for how this package fits the
spec-to-layout pipeline.

The package re-exports nothing: import each name from the module that
defines it (``repro.baselines.autodcim``, ``repro.baselines.arctic``,
``repro.baselines.manual``).
"""
