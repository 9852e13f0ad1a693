"""Layout/APR substrate: geometry, SDP placement, routing estimation,
DRC, LVS, and GDS-style export.

See ``docs/architecture.md`` for how this package fits the
spec-to-layout pipeline.

The package re-exports nothing: import each name from the module that
defines it (``repro.layout.sdp``, ``repro.layout.gds``, ...), so a
process loads only the modules it runs.
"""
