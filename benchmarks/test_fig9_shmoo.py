"""Fig. 9 — shmoo plot of the SynDCIM-generated test macro.

The fabricated 64x64 MCR=2 chip shows ~1.1 GHz at 1.2 V and ~300 MHz at
0.7 V.  Here the compiled macro's post-layout critical path is swept
through the alpha-power voltage model with on-die variation, producing
the same pass/fail grid.  Checked shape:

* a monotone pass boundary (higher V -> higher fmax);
* fmax(1.2 V) in the paper's band around 1.1 GHz (x0.65..x1.45);
* fmax(0.7 V) in the band around 300 MHz;
* the fmax(1.2V)/fmax(0.7V) ratio near the silicon's ~3.7.
"""

import numpy as np
import pytest

from repro.sim.shmoo import run_shmoo

VOLTAGES = [round(v, 2) for v in np.arange(0.6, 1.25, 0.05)]
FREQS = [float(f) for f in range(100, 1500, 100)]


@pytest.mark.benchmark(group="fig9")
def test_fig9_shmoo(benchmark, testchip_implementation, process, save_result):
    impl = testchip_implementation.implementation
    crit = impl.min_period_ns

    result = run_shmoo(crit, process, VOLTAGES, FREQS, sigma=0.02)
    f12 = result.max_frequency_mhz(1.2)
    f07 = result.max_frequency_mhz(0.7)
    f09 = result.max_frequency_mhz(0.9)

    header = (
        f"post-layout critical path @0.9V: {crit:.3f} ns\n"
        f"fmax: {f12:.0f} MHz @1.2V | {f09:.0f} MHz @0.9V | "
        f"{f07:.0f} MHz @0.7V   (paper: 1100 MHz @1.2V, ~300 MHz @0.7V)\n"
    )
    save_result("fig9_shmoo", header + "\n" + result.render())

    # Paper bands (shape reproduction, wide tolerance for the substrate).
    assert 0.65 * 1100 <= f12 <= 1.45 * 1100, f12
    assert 0.55 * 300 <= f07 <= 1.8 * 300, f07
    ratio = f12 / f07
    assert 2.5 < ratio < 5.0, ratio
    # The implemented design still honors the 800 MHz @0.9V spec.
    assert f09 >= 800.0

    benchmark(
        lambda: run_shmoo(crit, process, VOLTAGES, FREQS, sigma=0.02)
    )


SIGMAS = (0.0, 0.02, 0.05, 0.10)


@pytest.mark.benchmark(group="fig9")
def test_fig9_variation_sensitivity(benchmark, testchip_implementation,
                                    process, save_result):
    """The ragged edge: more on-die variation erodes the pass region but
    never violates monotonicity of the boundary."""
    crit = testchip_implementation.implementation.min_period_ns
    sweeps = [
        run_shmoo(crit, process, VOLTAGES, FREQS, sigma=s) for s in SIGMAS
    ]
    rows = []
    prev_pass = None
    for sigma, res in zip(SIGMAS, sweeps):
        n_pass = sum(sum(row) for row in res.passed)
        rows.append([sigma, n_pass, round(res.max_frequency_mhz(1.2), 0)])
        if prev_pass is not None:
            assert n_pass <= prev_pass + 2  # small jitter tolerance
        prev_pass = n_pass
    from repro.compiler.report import format_table

    save_result(
        "fig9_variation",
        format_table(["sigma", "passing_cells", "fmax@1.2V"], rows),
    )
    benchmark(
        lambda: run_shmoo(crit, process, VOLTAGES, FREQS, sigma=0.05)
    )
