"""RTL intermediate representation, Verilog emission and generators.

See ``docs/architecture.md`` for how this package fits the
spec-to-layout pipeline.

The package re-exports nothing: import each name from the module that
defines it (``repro.rtl.ir``, ``repro.rtl.verilog``, ...), so a process
loads only the modules it runs.
"""
