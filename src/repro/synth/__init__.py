"""Synthesis layer: elaboration is :meth:`repro.rtl.ir.Module.flatten`;
this package adds the netlist optimization passes.

See ``docs/architecture.md`` for how this package fits the
spec-to-layout pipeline.

The package re-exports nothing: import each name from the module that
defines it (``repro.synth.optimize``, ``repro.synth.vt``), so a
process loads only the modules it runs.
"""
