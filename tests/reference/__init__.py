"""Scalar reference implementations that shipped code is pinned against.

Each module keeps, verbatim but for its imports, the straightforward
version of a kernel the package now runs in vectorized or trimmed form:
``estimate`` (the search's ``estimate_macro``), ``optimize`` (the
synthesis passes), ``activity`` (switching-activity propagation),
``layout`` (overlap sweep, shelf packing, routing estimate), ``sta``
(the graph-based STA and hold check) and ``gatesim`` (the scalar
gate-level simulator).  Tests import them as ``reference.<module>``;
nothing under ``src/repro`` may (``tests/test_reachability.py``).
"""
