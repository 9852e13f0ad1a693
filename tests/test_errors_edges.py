"""Cross-cutting edge cases and error-path coverage."""

import pytest

from repro.errors import (
    LayoutError,
    LibraryError,
    SearchError,
    SimulationError,
    SpecificationError,
    SynDCIMError,
    SynthesisError,
    TimingError,
)


def test_error_hierarchy():
    for exc in (
        SpecificationError,
        LibraryError,
        SynthesisError,
        TimingError,
        SearchError,
        LayoutError,
        SimulationError,
    ):
        assert issubclass(exc, SynDCIMError)


class TestTinySpecs:
    def test_smallest_legal_macro_compiles_fully(self, scl):
        """4x4 MCR=1 INT2 — the floor of every dimension."""
        from repro import SynDCIM
        from repro.spec import INT2, MacroSpec

        spec = MacroSpec(
            height=4,
            width=4,
            mcr=1,
            input_formats=(INT2,),
            weight_formats=(INT2,),
            mac_frequency_mhz=300.0,
        )
        result = SynDCIM(scl=scl).compile(spec)
        assert result.implementation.signoff_clean

    def test_smallest_macro_is_bit_exact(self):
        import numpy as np
        from macro_tb import MacroTestbench
        from repro.arch import MacroArchitecture
        from repro.spec import INT2, MacroSpec

        spec = MacroSpec(
            height=4, width=4, mcr=1,
            input_formats=(INT2,), weight_formats=(INT2,),
        )
        tb = MacroTestbench(spec, MacroArchitecture())
        rng = np.random.default_rng(9)
        for _ in range(4):
            w = rng.integers(-2, 2, size=(4, tb.model.n_groups))
            tb.load_weights(0, w, INT2)
            x = [int(v) for v in rng.integers(-2, 2, size=4)]
            assert tb.run_mac(x) == tb.expected(x)


class TestDegenerateInputs:
    def test_zero_weights_zero_result(self):
        import numpy as np
        from repro.sim.functional import DCIMMacroModel
        from repro.spec import INT4, MacroSpec

        spec = MacroSpec(
            height=8, width=8, mcr=1,
            input_formats=(INT4,), weight_formats=(INT4,),
        )
        m = DCIMMacroModel(spec)
        m.set_weights_int(0, np.zeros((8, 2), dtype=int), INT4)
        assert m.mac_cycles([7, -8, 3, 1, 0, -1, 5, 2]) == [0, 0]

    def test_single_lane_alignment(self):
        from repro.sim.formats import FPFields, align_group
        from repro.spec import FP8

        f = FPFields(sign=1, exponent=9, mantissa=5, fmt=FP8)
        aligned, emax = align_group([f])
        assert emax == 9
        assert aligned == [f.signed_significand()]

    def test_estimator_rejects_incompatible_arch(self, scl):
        from repro.arch import MacroArchitecture
        from repro.search.estimate import estimate_macro
        from repro.spec import MacroSpec

        spec = MacroSpec(mcr=4)
        with pytest.raises(SpecificationError):
            estimate_macro(spec, MacroArchitecture(mult_style="oai22"), scl)

    def test_scl_unknown_kind(self, scl):
        with pytest.raises(LibraryError):
            scl.lookup("bitline_booster", "x", 1)


class TestReportStability:
    def test_search_is_deterministic(self, paper_spec, scl):
        from repro.search.algorithm import MSOSearcher

        a = MSOSearcher(scl).search(paper_spec)
        b = MSOSearcher(scl).search(paper_spec)
        assert [e.arch for e in a.frontier] == [e.arch for e in b.frontier]

    def test_estimate_is_pure(self, paper_spec, scl):
        from repro.arch import MacroArchitecture
        from repro.search.estimate import estimate_macro

        arch = MacroArchitecture()
        e1 = estimate_macro(paper_spec, arch, scl)
        e2 = estimate_macro(paper_spec, arch, scl)
        assert e1.energy_per_cycle_pj == e2.energy_per_cycle_pj
        assert e1.critical_path_ns == e2.critical_path_ns
