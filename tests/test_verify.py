"""The verification harness: golden-model equivalence, mutation
catching, and wiring through the flow, records, batch jobs and CLI.

Property-style tests draw random (spec, format, weights, inputs)
combinations from named seeds; every assertion message carries the seed
so a failure is reproducible from the log alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import MacroArchitecture
from repro.batch.engine import BatchCompiler, BatchResult, BatchStats
from repro.batch.jobs import CompileJob
from repro.cli import build_parser, main
from repro.options import CompileOptions
from repro.rtl.gen.macro import generate_macro
from repro.sim.formats import int_range
from repro.spec import FP4, FP8, INT4, INT8, MacroSpec
from repro.verify.harness import verify_macro
from repro.verify.testbench import VecMacroTestbench
from repro.verify.stimuli import (
    directed_input_vectors,
    random_input_vectors,
    random_weight_matrix,
    serial_range,
)

BASE_SEED = 0xDC1


def _spec_for(fmt, rng) -> MacroSpec:
    height = int(rng.choice([4, 8, 16]))
    # width must hold a whole number of weight-bit groups (8 covers
    # every format up to INT8/FP8).
    width = int(rng.choice([8, 16]))
    mcr = int(rng.choice([1, 2]))
    return MacroSpec(
        height=height,
        width=width,
        mcr=mcr,
        input_formats=(fmt,),
        weight_formats=(fmt,),
        mac_frequency_mhz=400.0,
    )


class TestGoldenEquivalence:
    """mac_ideal == mac_cycles == vecsim netlist output, per format."""

    @pytest.mark.parametrize("fmt", [INT4, INT8, FP4, FP8], ids=str)
    @pytest.mark.parametrize("trial", range(3))
    def test_random_draws(self, fmt, trial):
        seed = BASE_SEED + 101 * trial + fmt.bits
        rng = np.random.default_rng(seed)
        spec = _spec_for(fmt, rng)
        tb = VecMacroTestbench(spec, batch=16)
        bank = int(rng.integers(0, spec.mcr))
        weights = random_weight_matrix(
            rng, spec.height, tb.model.n_groups, fmt
        )
        tb.load_weights(bank, weights, fmt)
        xs = random_input_vectors(rng, spec.height, fmt, 16)
        observed = tb.run_mac(xs, bank)
        ideal = tb.expected(xs, bank)
        assert (observed == ideal).all(), (
            f"seed={seed}: netlist != mac_ideal for {fmt.name} on "
            f"{spec.describe()}"
        )
        for lane in (0, 7, 15):
            cycles = tb.model.mac_cycles(list(xs[lane]), bank)
            assert cycles == list(ideal[lane]), (
                f"seed={seed}: mac_cycles != mac_ideal for {fmt.name} "
                f"lane {lane} on {spec.describe()}"
            )

    @pytest.mark.parametrize("fmt", [INT4, FP8], ids=str)
    def test_directed_corners(self, fmt):
        seed = BASE_SEED + fmt.bits
        rng = np.random.default_rng(seed)
        spec = _spec_for(fmt, rng)
        tb = VecMacroTestbench(spec, batch=32)
        weights = random_weight_matrix(
            rng, spec.height, tb.model.n_groups, fmt
        )
        tb.load_weights(0, weights, fmt)
        xs = directed_input_vectors(spec.height, fmt)
        lo, hi = serial_range(fmt)
        assert xs.min() >= lo and xs.max() <= hi
        observed = tb.run_mac(xs, 0)
        assert (observed == tb.expected(xs, 0)).all(), (
            f"seed={seed}: directed corners mismatch for {fmt.name}"
        )

    def test_mixed_format_harness_passes(self):
        spec = MacroSpec(
            height=8,
            width=8,
            mcr=2,
            input_formats=(INT4, FP4),
            weight_formats=(INT4, FP4),
            mac_frequency_mhz=400.0,
        )
        report = verify_macro(spec, vectors=512, seed=11, batch=128)
        assert report.passed, report.describe()
        assert report.vectors_run == 512
        assert report.vectors_per_s > 0
        assert report.to_dict()["first_failure"] is None

    def test_per_lane_banks_match_scalar(self, small_spec):
        """Per-lane bank selection (the coverage-striping mechanism)
        must agree with per-bank scalar runs."""
        rng = np.random.default_rng(BASE_SEED + 9)
        tb = VecMacroTestbench(small_spec, batch=8)
        lo, hi = int_range(small_spec.input_width)
        for bank in range(small_spec.mcr):
            tb.load_weights(
                bank,
                rng.integers(
                    lo, hi + 1,
                    size=(small_spec.height, tb.model.n_groups),
                ),
                INT4,
            )
        xs = rng.integers(lo, hi + 1, size=(8, small_spec.height))
        banks = np.arange(8) % small_spec.mcr
        got = tb.run_mac(xs, banks)
        assert (got == tb.expected(xs, banks)).all()
        for bank in range(small_spec.mcr):
            lanes = np.nonzero(banks == bank)[0]
            per_bank = tb.run_mac(xs[lanes], bank)
            assert (per_bank == got[lanes]).all()

    def test_stimuli_cover_every_format_and_bank(self):
        """A gross fault must surface on *every* (input format, bank)
        pair within a couple of rounds — the lanes are striped across
        both axes each round, so no pair waits for a round the vector
        budget may never reach.  (Round 0's directed bank-0 weights
        are all-zero, which masks this fault there; round 1's nonzero
        patterns expose it.)"""
        spec = MacroSpec(
            height=8,
            width=8,
            mcr=2,
            input_formats=(INT4, INT8),
            weight_formats=(INT4,),
            mac_frequency_mhz=400.0,
        )
        module, shape = generate_macro(spec, MacroArchitecture())
        flat = module.flatten()
        victim = next(i for i in flat.instances if i.ref == "INV_X1")
        victim.ref = "BUF_X2"
        report = verify_macro(
            spec,
            MacroArchitecture(),
            netlist=flat,
            shape=shape,
            vectors=128,
            seed=2,
            batch=64,  # two rounds
            max_records=128,
        )
        assert not report.passed
        seen_formats = {m.input_format for m in report.mismatches}
        seen_banks = {m.bank for m in report.mismatches}
        assert seen_formats == {"INT4", "INT8"}
        assert seen_banks == {0, 1}
        # A batch smaller than the format count must still rotate
        # through every input format over successive rounds.
        tiny = verify_macro(
            spec,
            MacroArchitecture(),
            netlist=flat,
            shape=shape,
            vectors=16,
            seed=2,
            batch=1,
            max_records=32,
        )
        assert {m.input_format for m in tiny.mismatches} == {"INT4", "INT8"}


def _fresh_flat(small_spec):
    module, shape = generate_macro(small_spec, MacroArchitecture())
    return module.flatten(), shape


def _verify_mutant(small_spec, flat, shape):
    return verify_macro(
        small_spec,
        MacroArchitecture(),
        netlist=flat,
        shape=shape,
        vectors=256,
        seed=5,
        batch=128,
    )


class TestMutationCatching:
    """The harness must actually *fail* on a broken netlist."""

    def test_flipped_cell_type(self, small_spec):
        flat, shape = _fresh_flat(small_spec)
        victim = next(i for i in flat.instances if i.ref == "INV_X1")
        victim.ref = "BUF_X2"  # complement becomes a pass-through
        report = _verify_mutant(small_spec, flat, shape)
        assert not report.passed
        first = report.first_failure
        assert first is not None and first.cycle >= 0
        assert 0 <= first.column < shape.n_groups
        assert first.expected != first.observed
        assert "FAIL" in report.describe()

    def test_swapped_connections(self, small_spec):
        flat, shape = _fresh_flat(small_spec)
        victim = next(
            i
            for i in flat.instances
            if i.ref == "FA_X1" and "S" in i.conn and "CO" in i.conn
        )
        victim.conn["S"], victim.conn["CO"] = (
            victim.conn["CO"],
            victim.conn["S"],
        )
        report = _verify_mutant(small_spec, flat, shape)
        assert not report.passed
        assert report.mismatch_count > 0

    def test_stuck_at_zero_net(self, small_spec):
        flat, shape = _fresh_flat(small_spec)
        victim = next(
            i
            for i in flat.instances
            if i.ref == "FA_X1" and "S" in i.conn
        )
        stuck_net = victim.conn["S"]
        victim.conn["S"] = flat.add_net("mut_dangling")
        flat.add_instance("mut_tie", "TIE0", {"Y": stuck_net})
        report = _verify_mutant(small_spec, flat, shape)
        assert not report.passed
        # Mismatch records stay capped but the count is uncapped.
        assert len(report.mismatches) <= 16 <= report.mismatch_count or (
            report.mismatch_count <= 16
            and len(report.mismatches) == report.mismatch_count
        )

    def test_healthy_netlist_passes_same_stimuli(self, small_spec):
        flat, shape = _fresh_flat(small_spec)
        report = _verify_mutant(small_spec, flat, shape)
        assert report.passed, report.describe()


class TestStimuli:
    @pytest.mark.parametrize("fmt", [FP4, FP8], ids=str)
    def test_fp_random_vectors_match_alignment_reference(self, fmt):
        """The vectorized FP draw must equal the scalar
        FPFields/align_group twin draw-for-draw (same rng stream)."""
        from repro.sim.formats import FPFields, align_group

        seed = BASE_SEED + 31
        height, n = 8, 16
        got = random_input_vectors(
            np.random.default_rng(seed), height, fmt, n
        )
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(n, height))
        exps = rng.integers(0, 1 << fmt.exponent, size=(n, height))
        mants = rng.integers(0, 1 << fmt.mantissa, size=(n, height))
        for i in range(n):
            fields = [
                FPFields(
                    sign=int(signs[i, r]),
                    exponent=int(exps[i, r]),
                    mantissa=int(mants[i, r]),
                    fmt=fmt,
                )
                for r in range(height)
            ]
            aligned, _emax = align_group(fields)
            assert list(got[i]) == aligned, f"seed={seed} vector {i}"

    def test_options_default_mirrors_harness_default(self):
        # repro.options keeps the number as a literal so CLI/service
        # startup stays numpy-free; this is the drift guard.
        from repro.options import DEFAULT_VERIFY_VECTORS
        from repro.verify.harness import DEFAULT_VECTORS

        assert DEFAULT_VERIFY_VECTORS == DEFAULT_VECTORS


class TestFlowWiring:
    def test_implement_session_verify_stage(self, small_spec):
        from repro.compiler.flow import ImplementSession

        session = ImplementSession(
            small_spec, verify=True, verify_vectors=256
        )
        impl = session.implement(MacroArchitecture())
        assert impl.verification is not None
        assert impl.verification.vectors_run == 256
        assert impl.verification.passed
        assert impl.verification_clean
        assert "verification PASS" in impl.report()

    def test_implementation_record_carries_verification(self, small_spec):
        from repro.compiler.flow import ImplementSession
        from repro.compiler.syndcim import implementation_record

        session = ImplementSession(
            small_spec, verify=True, verify_vectors=128
        )
        impl = session.implement(MacroArchitecture())
        record = implementation_record(impl)
        assert record["verified"] is True
        assert record["verification"]["vectors_run"] == 128
        assert record["verification"]["passed"] is True
        # Without the stage the fields stay None (not false-positive).
        plain = ImplementSession(small_spec).implement(MacroArchitecture())
        plain_record = implementation_record(plain)
        assert plain_record["verified"] is None
        assert plain_record["verification"] is None

    def test_compile_verifies_final_implementation_once(
        self, scl, small_spec, monkeypatch
    ):
        """SynDCIM.compile(verify=True) attaches exactly one report —
        to the implementation it returns — instead of verifying every
        discarded escalation attempt."""
        import repro.compiler.flow as flow_mod
        from repro.compiler.syndcim import SynDCIM

        calls = []
        real = flow_mod.verify_macro

        def counting_verify(*args, **kwargs):
            calls.append(kwargs.get("vectors"))
            return real(*args, **kwargs)

        monkeypatch.setattr(flow_mod, "verify_macro", counting_verify)
        result = SynDCIM(scl=scl).compile(
            small_spec, verify=True, verify_vectors=128
        )
        impl = result.implementation
        assert impl is not None and impl.verification is not None
        assert impl.verification.passed
        assert impl.verification.vectors_run == 128
        assert len(calls) == 1

    def test_implement_archs_honors_engine_verify(self, scl, small_spec):
        """Engine-level verify applies to implement-only jobs too, not
        just full compiles."""
        engine = BatchCompiler(
            jobs=1,
            use_cache=False,
            options=CompileOptions(verify=True, verify_vectors=128),
        )
        result = engine.implement_archs(small_spec, [MacroArchitecture()])
        rec = result.records[0]
        assert rec["status"] == "ok"
        assert rec["implementation"]["verified"] is True
        assert rec["implementation"]["verification"]["vectors_run"] == 128

    def test_job_key_covers_verify_options(self, small_spec):
        base = CompileJob(spec=small_spec)
        verified = CompileJob(small_spec, CompileOptions(verify=True))
        deeper = CompileJob(
            small_spec, CompileOptions(verify=True, verify_vectors=65536)
        )
        assert base.key() != verified.key()
        assert verified.key() != deeper.key()
        assert verified.payload()["options"]["verify"] is True
        assert deeper.payload()["options"]["verify_vectors"] == 65536


def _capture_jobs(monkeypatch):
    captured = {}

    def fake_run_jobs(self, jobs):
        captured["engine"] = self
        captured["jobs"] = list(jobs)
        return BatchResult(records=[], stats=BatchStats(total=len(jobs)))

    monkeypatch.setattr(BatchCompiler, "run_jobs", fake_run_jobs)
    return captured


class TestCLI:
    def test_compile_and_batch_parsers_accept_verify(self):
        args = build_parser().parse_args(
            ["compile", "--verify", "--verify-vectors", "512"]
        )
        assert args.verify and args.verify_vectors == 512
        args = build_parser().parse_args(["sweep", "--verify"])
        assert args.verify and args.verify_vectors == 4096
        args = build_parser().parse_args(
            ["batch", "--specs", "x.json", "--verify-vectors", "64"]
        )
        assert not args.verify and args.verify_vectors == 64

    def test_verify_subcommand_parser(self):
        args = build_parser().parse_args(
            ["verify", "--vectors", "1024", "--seed", "3", "--batch", "256"]
        )
        assert args.command == "verify"
        assert args.vectors == 1024 and args.seed == 3 and args.batch == 256

    def test_sweep_forwards_verify_into_jobs(self, monkeypatch, tmp_path):
        captured = _capture_jobs(monkeypatch)
        rc = main(
            [
                "sweep",
                "--height", "8",
                "--width", "8",
                "--formats", "INT4",
                "--verify",
                "--verify-vectors", "256",
                "--output", str(tmp_path / "out.jsonl"),
                "--no-summary",
            ]
        )
        assert rc == 0
        jobs = captured["jobs"]
        assert jobs and all(j.options.verify for j in jobs)
        assert all(j.options.verify_vectors == 256 for j in jobs)
        assert captured["engine"].options.verify is True

    def test_no_verify_means_off(self, monkeypatch, tmp_path):
        captured = _capture_jobs(monkeypatch)
        rc = main(
            [
                "sweep",
                "--height", "8",
                "--formats", "INT4",
                "--output", str(tmp_path / "out.jsonl"),
                "--no-summary",
            ]
        )
        assert rc == 0
        assert all(not j.options.verify for j in captured["jobs"])

    def test_verify_subcommand_end_to_end(self, scl, capsys):
        rc = main(
            [
                "verify",
                "--height", "8",
                "--width", "8",
                "--formats", "INT4",
                "--frequency", "400",
                "--vectors", "128",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification PASS" in out
        assert "128 vectors" in out
