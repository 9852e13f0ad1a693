"""Differential equivalence: vectorized vs scalar gate-level simulator.

The vectorized engine's contract is *bit-for-bit* agreement with the
pinned scalar reference (``GateSimulator``, ``tests/reference/gatesim.py``) on
every net, for every generated module kind — adder trees, shift-adder,
OFU, full macro — including sequential state and reset, over seeded
random vector batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import MacroArchitecture
from repro.errors import SimulationError
from repro.rtl.gen.addertree import generate_adder_tree
from repro.rtl.gen.macro import generate_macro
from repro.rtl.gen.ofu import OFUConfig, generate_ofu
from repro.rtl.gen.shiftadder import accumulator_width, generate_shift_adder
from repro.rtl.ir import Module, NetlistBuilder
from repro.sim.formats import int_range
from repro.sim.vecsim import _BUILTIN, VecSim, _kernel_for, pack_lanes, unpack_lanes
from repro.spec import INT4, MacroSpec
from repro.tech.stdcells import Cell, StdCellLibrary, default_library

from macro_tb import MacroTestbench
from reference.gatesim import GateSimulator

LIB = default_library()
SEED = 20260729


def _assert_all_nets_equal(
    vec: VecSim, scalar: GateSimulator, lane: int, context: str
) -> None:
    """Every net of the module must agree between the vectorized lane
    and the scalar reference."""
    view = vec._view
    lanes = vec.lanes_snapshot()
    for net, nid in view.net_id.items():
        got = int(lanes[nid, lane])
        want = scalar.values[net]
        assert got == want, (
            f"{context}: net {net} lane {lane}: vec={got} scalar={want}"
        )


def _drive_both(
    vec: VecSim,
    scalars: list,
    net: str,
    per_lane: np.ndarray,
) -> None:
    vec.set_input(net, per_lane)
    for lane, sim in enumerate(scalars):
        sim.set_input(net, int(per_lane[lane]))


class TestCombinationalModules:
    @pytest.mark.parametrize("style", ["rca", "cmp42", "mixed"])
    def test_adder_tree_every_net(self, style):
        module, _stats = generate_adder_tree(16, style)
        batch = 64
        rng = np.random.default_rng(SEED)
        stim = rng.integers(0, 2, size=(16, batch))
        vec = VecSim(module, LIB, batch)
        scalars = [GateSimulator(module, LIB) for _ in range(4)]
        for i in range(16):
            vec.set_input(f"in[{i}]", stim[i])
            for lane, sim in enumerate(scalars):
                sim.set_input(f"in[{i}]", int(stim[i, lane]))
        for sim in scalars:
            sim.evaluate()
        for lane, sim in enumerate(scalars):
            _assert_all_nets_equal(vec, sim, lane, f"tree[{style}]")
        # And the sum is numerically right on every lane (unsigned).
        width = len([p for p in module.ports if p.startswith("sum[")])
        sums = vec.bus("sum", width).astype(np.int64) @ (
            1 << np.arange(width, dtype=np.int64)
        )
        assert (sums == stim.sum(axis=0)).all()

    @pytest.mark.parametrize("input_register", [False, True])
    def test_ofu_every_net(self, input_register):
        cfg = OFUConfig(
            columns=4, input_width=6, input_register=input_register
        )
        module = generate_ofu(cfg)
        batch = 32
        rng = np.random.default_rng(SEED + 1)
        vec = VecSim(module, LIB, batch)
        scalars = [GateSimulator(module, LIB) for _ in range(3)]
        lo, hi = int_range(cfg.input_width)
        words = rng.integers(lo, hi + 1, size=(cfg.columns, batch))
        for j in range(cfg.columns):
            vec.set_bus_int(f"a{j}", words[j], cfg.input_width)
            for lane, sim in enumerate(scalars):
                sim.set_bus(
                    f"a{j}",
                    [
                        (int(words[j, lane]) >> i) & 1
                        for i in range(cfg.input_width)
                    ],
                )
        subs = rng.integers(0, 2, size=(cfg.stages, batch))
        for s in range(cfg.stages):
            _drive_both(vec, scalars, f"sub[{s}]", subs[s])
        cycles = 2 if input_register else 1
        for _ in range(cycles):
            if input_register:
                vec.clock()
                for sim in scalars:
                    sim.clock()
            else:
                for sim in scalars:
                    sim.evaluate()
        for lane, sim in enumerate(scalars):
            _assert_all_nets_equal(vec, sim, lane, "ofu")


class TestSequentialModules:
    def test_shift_adder_state_and_reset(self):
        tree_w, k = 4, 3
        module = generate_shift_adder(tree_w, k)
        acc_w = accumulator_width(tree_w, k)
        batch = 16
        rng = np.random.default_rng(SEED + 2)
        vec = VecSim(module, LIB, batch)
        scalars = [GateSimulator(module, LIB) for _ in range(3)]
        vec.reset_state()
        for sim in scalars:
            sim.reset_state()
        for cyc in range(6):
            t_bits = rng.integers(0, 2, size=(tree_w, batch))
            for i in range(tree_w):
                _drive_both(vec, scalars, f"t[{i}]", t_bits[i])
            ctl = 1 if cyc == 0 else 0
            _drive_both(vec, scalars, "neg", np.full(batch, ctl))
            _drive_both(vec, scalars, "clear", np.full(batch, ctl))
            vec.clock()
            for sim in scalars:
                sim.clock()
            for lane, sim in enumerate(scalars):
                _assert_all_nets_equal(vec, sim, lane, f"sna cyc{cyc}")
        accs = vec.bus_int("acc", acc_w)
        for lane, sim in enumerate(scalars):
            assert int(accs[lane]) == sim.bus_int("acc", acc_w)
        # reset with value=1 matches the scalar semantics too.
        vec.reset_state(1)
        for sim in scalars:
            sim.reset_state(1)
        for sim in scalars:
            sim.evaluate()
        for lane, sim in enumerate(scalars):
            _assert_all_nets_equal(vec, sim, lane, "sna reset1")


class TestFullMacro:
    def test_macro_matches_scalar_and_model(self, small_spec, default_arch):
        from repro.verify.testbench import VecMacroTestbench

        batch = 12
        rng = np.random.default_rng(SEED + 4)
        scalar_tb = MacroTestbench(small_spec, default_arch)
        vec_tb = VecMacroTestbench(small_spec, default_arch, batch=batch)
        lo, hi = int_range(small_spec.input_width)
        for bank in range(small_spec.mcr):
            w = rng.integers(
                lo, hi + 1,
                size=(small_spec.height, vec_tb.model.n_groups),
            )
            scalar_tb.load_weights(bank, w, INT4)
            vec_tb.load_weights(bank, w, INT4)
            xs = rng.integers(
                lo, hi + 1, size=(batch, small_spec.height)
            )
            got = vec_tb.run_mac(xs, bank)
            expected = vec_tb.expected(xs, bank)
            assert (got == expected).all(), f"bank {bank} model mismatch"
            for lane in (0, batch // 2, batch - 1):
                assert list(got[lane]) == scalar_tb.run_mac(
                    list(xs[lane]), bank
                ), f"bank {bank} lane {lane} scalar mismatch"


class TestSemantics:
    def test_sequential_missing_q_raises_in_both(self):
        b = NetlistBuilder("noq")
        d = b.inputs("d")[0]
        clk = b.inputs("clk")[0]
        b.module.set_clocks([clk])
        b.module.add_instance("ff", "DFF_X1", {"D": d, "CK": clk})
        m = b.finish()
        with pytest.raises(SimulationError, match="no Q connection"):
            GateSimulator(m, LIB)
        with pytest.raises(SimulationError, match="no Q connection"):
            VecSim(m, LIB, batch=4)

    def test_combinational_cycle_raises(self):
        m = Module("loop")
        m.add_port("y", "output")
        m.add_net("a")
        m.add_net("b")
        m.add_instance("i1", "INV_X1", {"A": "a", "Y": "b"})
        m.add_instance("i2", "INV_X1", {"A": "b", "Y": "a"})
        m.add_instance("i3", "BUF_X2", {"A": "a", "Y": "y"})
        with pytest.raises(SimulationError, match="levelization failed"):
            VecSim(m, LIB, batch=4)

    def test_unknown_net_and_bad_stimulus_rejected(self):
        b = NetlistBuilder("x")
        a = b.inputs("a")[0]
        y = b.outputs("y")[0]
        b.cell("BUF_X2", A=a, Y=y)
        vec = VecSim(b.finish(), LIB, batch=4)
        with pytest.raises(SimulationError):
            vec.net("nope")
        with pytest.raises(SimulationError):
            vec.set_input("nope", 1)
        with pytest.raises(SimulationError):
            vec.set_input("a", np.array([1, 0]))  # wrong lane count
        with pytest.raises(SimulationError):
            VecSim(b.finish(), LIB, batch=0)
        # Fabric-driven nets refuse the bulk free-net path.
        with pytest.raises(SimulationError, match="fabric-driven"):
            vec.drive_nets(
                np.array([vec.net_id("y")]), np.array([1])
            )

    def test_port_writes_refuse_fabric_driven_nets(self):
        """An output port a cell drives is a port but not a free net:
        every stimulus path refuses it instead of letting the next
        pass silently undo the write."""
        b = NetlistBuilder("x")
        a = b.inputs("a")[0]
        d = b.inputs("d", 2)
        y = b.outputs("y")[0]
        q = b.outputs("q", 2)
        b.cell("BUF_X2", A=a, Y=y)
        for i in range(2):
            b.cell("BUF_X2", A=d[i], Y=q[i])
        vec = VecSim(b.finish(), LIB, batch=4)
        with pytest.raises(SimulationError, match=r"^net y is fabric-driven$"):
            vec.set_input("y", 1)
        with pytest.raises(SimulationError, match=r"^net q\[0\] is fabric-driven$"):
            vec.set_bus_int("q", 1, 2)
        vec.set_input("a", 1)
        assert (vec.net("y") == 1).all()

    def test_multiple_combinational_drivers_raise(self):
        m = Module("two_drivers")
        m.add_port("a", "input")
        m.add_port("y", "output")
        m.add_instance("u1", "BUF_X2", {"A": "a", "Y": "y"})
        m.add_instance("u2", "INV_X1", {"A": "a", "Y": "y"})
        with pytest.raises(
            SimulationError, match=r"^net y has multiple combinational drivers$"
        ):
            VecSim(m, LIB, batch=4)

    def test_register_without_d_holds_its_reset_value(self):
        """A register whose D is unconnected keeps its reset value on
        every clock while its neighbour samples, lane for lane as in
        the scalar reference."""
        m = Module("hold")
        for p in ("d", "clk"):
            m.add_port(p, "input")
        for p in ("held", "sampled"):
            m.add_port(p, "output")
        m.set_clocks(["clk"])
        m.add_net("q0")
        m.add_net("q1")
        m.add_instance("ff0", "DFF_X1", {"CK": "clk", "Q": "q0"})
        m.add_instance("ff1", "DFF_X1", {"D": "d", "CK": "clk", "Q": "q1"})
        m.add_instance("b0", "BUF_X2", {"A": "q0", "Y": "held"})
        m.add_instance("b1", "BUF_X2", {"A": "q1", "Y": "sampled"})
        batch = 5
        rng = np.random.default_rng(SEED + 9)
        for reset in (0, 1):
            vec = VecSim(m, LIB, batch)
            scalars = [GateSimulator(m, LIB) for _ in range(batch)]
            vec.reset_state(reset)
            for sim in scalars:
                sim.reset_state(reset)
            for cyc in range(4):
                _drive_both(vec, scalars, "d", rng.integers(0, 2, size=batch))
                vec.clock()
                for sim in scalars:
                    sim.clock()
                for lane, sim in enumerate(scalars):
                    _assert_all_nets_equal(vec, sim, lane, f"hold{reset} cyc{cyc}")
                assert (vec.net("held") == reset).all()

    def test_scalar_broadcast_and_bus_helpers(self):
        b = NetlistBuilder("bus")
        d = b.inputs("d", 4)
        q = b.outputs("q", 4)
        for i in range(4):
            b.cell("BUF_X2", A=d[i], Y=q[i])
        vec = VecSim(b.finish(), LIB, batch=130)  # > 2 words, odd tail
        vec.set_bus("d", [1, 0, 1, 1])  # LSB first: -3 as INT4
        assert (vec.bus_int("q", 4) == -3).all()
        vals = np.arange(130) % 13 - 6
        vec.set_bus_int("d", vals, 4)
        assert (vec.bus_int("q", 4) == vals).all()

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(SEED + 5)
        for batch in (1, 63, 64, 65, 130, 4096):
            words = (batch + 63) // 64
            bits = rng.integers(0, 2, size=(3, batch)).astype(np.uint8)
            packed = pack_lanes(bits, words)
            assert packed.shape == (3, words)
            assert (unpack_lanes(packed, batch) == bits).all()

    def test_every_builtin_kernel_serves_a_library_cell(self):
        """Kernels are picked by truth table: each of the 16 hand-written
        ones is some default-library cell's, and no library cell falls
        back to the minterm kernel."""
        kernels = {_kernel_for(c) for c in LIB if c.truth_table is not None}
        assert len(_BUILTIN) == 16
        assert kernels == set(_BUILTIN.values())

    def test_truth_table_fallback_for_custom_cell(self):
        """A cell whose function no hand-written kernel computes must
        still simulate, via the minterm kernel built from its table."""
        maj = Cell(
            name="MAJ3",
            area_um2=3.0,
            input_caps_ff={"A": 1.0, "B": 1.0, "C": 1.0},
            outputs=("Y",),
            arcs=(),
            leakage_nw=1.0,
            internal_energy_fj={"Y": 1.0},
            pin_functions={"Y": "(A & B) | (A & C) | (B & C)"},
        )
        lib = StdCellLibrary(dict({c.name: c for c in LIB}, MAJ3=maj))
        m = Module("maj")
        for p in ("a", "b", "c"):
            m.add_port(p, "input")
        m.add_port("y", "output")
        m.add_instance(
            "u1", "MAJ3", {"A": "a", "B": "b", "C": "c", "Y": "y"}
        )
        vec = VecSim(m, lib, batch=8)
        scalar = GateSimulator(m, lib)
        rng = np.random.default_rng(SEED + 6)
        stim = rng.integers(0, 2, size=(3, 8))
        for i, p in enumerate(("a", "b", "c")):
            vec.set_input(p, stim[i])
            scalar.set_input(p, int(stim[i, 0]))
        scalar.evaluate()
        got = vec.net("y")
        assert int(got[0]) == scalar.net("y")
        assert (got == (stim.sum(axis=0) >= 2)).all()


class TestTailWordGuard:
    """Batch sizes that don't fill the last uint64 word leave unused
    high bits in every packed row.  The engine's contract: those bits
    never reach an observable — not through bulk drives,
    sequential state, scalar broadcasts (which set whole words to all
    ones), or ``unpack_lanes`` — and a ragged batch agrees lane for
    lane with a word-aligned batch under identical stimulus."""

    @pytest.mark.parametrize("batch", [5, 63, 97, 130])
    def test_ragged_batch_matches_word_aligned_reference(self, batch):
        tree_w, k = 4, 3
        module = generate_shift_adder(tree_w, k)
        acc_w = accumulator_width(tree_w, k)
        ref_batch = 256  # word-aligned reference, first `batch` lanes shared
        vec = VecSim(module, LIB, batch)
        ref = VecSim(module, LIB, ref_batch)
        rng = np.random.default_rng(SEED + 7)

        def drive(name, bits):
            vec.set_input(name, bits)
            padded = np.zeros(ref_batch, dtype=bits.dtype)
            padded[:batch] = bits
            ref.set_input(name, padded)

        vec.reset_state(1)  # all-ones state: the tail-word stress case
        ref.reset_state(1)
        for cyc in range(5):
            for i in range(tree_w):
                drive(f"t[{i}]", rng.integers(0, 2, size=batch))
            ctl = 1 if cyc == 0 else 0
            drive("neg", np.full(batch, ctl))
            drive("clear", np.full(batch, ctl))
            vec.clock()
            ref.clock()
            snap = vec.lanes_snapshot()
            ref_snap = ref.lanes_snapshot()
            assert snap.shape == (vec._view.n_nets, batch)
            assert set(np.unique(snap)) <= {0, 1}
            assert (snap == ref_snap[:, :batch]).all(), f"cycle {cyc}"
        accs = vec.bus_int("acc", acc_w)
        assert accs.shape == (batch,)
        assert (accs == ref.bus_int("acc", acc_w)[:batch]).all()

    @pytest.mark.parametrize("batch", [3, 65, 127])
    def test_scalar_broadcast_and_drive_nets_tail(self, batch):
        """Scalar broadcasts write all-ones words; drive_nets' scalar
        path does the same per net.  Neither may leak past the batch."""
        module, stats = generate_adder_tree(8, "rca")
        width = stats.output_width
        vec = VecSim(module, LIB, batch)
        ids = np.asarray(
            [vec.net_id(f"in[{i}]") for i in range(8)], dtype=np.int64
        )
        weights = 1 << np.arange(width, dtype=np.int64)

        def unsigned_sum():
            return vec.bus("sum", width).astype(np.int64) @ weights

        vec.drive_nets(ids, np.ones(8, dtype=np.uint8))  # scalar path
        for i in range(8):
            got = vec.net(f"in[{i}]")
            assert got.shape == (batch,) and (got == 1).all()
        total = unsigned_sum()
        assert (total == 8).all() and total.shape == (batch,)
        vec.set_input("in[0]", 0)  # scalar broadcast of zero
        assert (unsigned_sum() == 7).all()
        vec.set_input("in[0]", 1)  # and of one (all-ones words)
        assert (unsigned_sum() == 8).all()
        # unpack_lanes never returns bits past the batch.
        packed = pack_lanes(np.ones(batch, dtype=np.uint8), vec.words)
        assert unpack_lanes(packed, batch).shape == (batch,)
        assert (unpack_lanes(packed, batch) == 1).all()

    def test_sequential_state_tail_isolation(self):
        """reset_state(1) fills whole state words with ones; the lanes
        past the batch must not affect Q observables or propagate into
        downstream sums."""
        tree_w, k = 4, 2
        module = generate_shift_adder(tree_w, k)
        acc_w = accumulator_width(tree_w, k)
        batch = 7  # one ragged word
        vec = VecSim(module, LIB, batch)
        scalars = [GateSimulator(module, LIB) for _ in range(batch)]
        vec.reset_state(1)
        for sim in scalars:
            sim.reset_state(1)
        rng = np.random.default_rng(SEED + 8)
        for cyc in range(4):
            bits = rng.integers(0, 2, size=(tree_w, batch))
            for i in range(tree_w):
                _drive_both(vec, scalars, f"t[{i}]", bits[i])
            _drive_both(vec, scalars, "neg", np.zeros(batch, dtype=np.int64))
            _drive_both(vec, scalars, "clear", np.zeros(batch, dtype=np.int64))
            vec.clock()
            for sim in scalars:
                sim.clock()
            for lane, sim in enumerate(scalars):
                _assert_all_nets_equal(vec, sim, lane, f"tail-seq cyc{cyc}")
        accs = vec.bus_int("acc", acc_w)
        for lane, sim in enumerate(scalars):
            assert int(accs[lane]) == sim.bus_int("acc", acc_w)
