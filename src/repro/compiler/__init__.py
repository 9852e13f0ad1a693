"""Compiler driver and implementation flow.

See ``docs/architecture.md`` for how this package fits the
spec-to-layout pipeline.

The package re-exports nothing: import each name from the module that
defines it (``repro.compiler.syndcim``, ``repro.compiler.flow``,
``repro.compiler.report``), so a process that only formats a report
loads no part of the flow.
"""
