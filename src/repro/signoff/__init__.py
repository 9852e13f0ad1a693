"""Multi-corner PVT signoff.

Everything the flow needs to judge an implementation at more than one
operating point: the :class:`Corner`/:class:`CornerSet` PVT model
(process sigma x supply x temperature, with the ``typical`` and
``signoff3`` presets), and :func:`multi_corner_signoff`, which re-runs
timing with the composed derate and rescales power per corner while
reusing every per-netlist cache.  See ``docs/signoff.md`` for the
model, the cache-key semantics and the worst-corner escalation story.

The package re-exports nothing: import each name from the module that
defines it (``repro.signoff.evaluate``, ...), so a process loads only
the modules it runs.
"""
