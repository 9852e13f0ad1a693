"""Technology substrate: process model, standard cells, characterization,
Liberty views.

See ``docs/architecture.md`` for how this package fits the
spec-to-layout pipeline.

The package re-exports nothing: import each name from the module that
defines it (``repro.tech.stdcells``, ``repro.tech.liberty``, ...), so
a process loads only the modules it runs.
"""
