"""Parameterized generators for the seven DCIM subcircuit types.

The package re-exports nothing: import each name from the module that
defines it (``repro.rtl.gen.macro``, ``repro.rtl.gen.addertree``,
...), so a process loads only the modules it runs.
"""
