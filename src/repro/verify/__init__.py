"""Functional verification of compiled netlists against the golden model.

The paper's Section III.D closes the flow with "gate-level simulation
to ensure it meets frontend requirements".  This package makes that a
first-class batch workload instead of a test-only spot check:

* :mod:`repro.verify.stimuli` — seeded randomized and directed corner
  stimulus generation per :class:`~repro.spec.DataFormat` (sign,
  overflow, zero and FP-alignment extremes);
* :mod:`repro.verify.testbench` — :class:`VecMacroTestbench`, the
  vectorized macro driver built on :class:`repro.sim.vecsim.VecSim`
  (drives digital *and* physical netlists — weight ports or bitcell
  read nets);
* :mod:`repro.verify.harness` — :func:`verify_macro`, which runs N MAC
  cycles of netlist-vs-:class:`~repro.sim.functional.DCIMMacroModel`
  equivalence and returns a structured :class:`VerificationReport`.

Wired into the stack: ``ImplementSession``/``SynDCIM.compile`` accept a
post-synthesis ``verify=`` stage, batch records carry the report, and
the CLI exposes ``--verify`` plus a ``verify`` subcommand.

The package re-exports nothing: import each name from the module that
defines it (``repro.verify.harness``, ...), so a process loads only
the modules it runs.
"""
