"""Simulation: number formats, behavioural macro model, the vectorized
batch gate-level simulator, and the voltage/frequency shmoo engine.

See ``docs/architecture.md`` for how this package fits the
spec-to-layout pipeline.

The package re-exports nothing: import each name from the module that
defines it (``repro.sim.vecsim``, ``repro.sim.shmoo``, ...), so a
process loads only the modules it runs.
"""
