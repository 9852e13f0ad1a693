"""The shipped estimator against its verbatim reference copy.

``estimate_macro`` is the searcher's inner loop, so it is written for
speed; ``tests/reference/estimate.py`` keeps the straightforward version
it replaced.  Both must agree bit for bit on every field of the
:class:`MacroEstimate`: over the whole ``architecture_space`` of every
golden-search spec shape, in every Vt flavor, with the default and an
explicit precision mode — plus every architecture the golden searches
actually visit, which adds the pipeline-register, OFU and driver knobs
``architecture_space`` leaves at their defaults.
"""

from __future__ import annotations

import pytest
from golden_search import CASES
from reference.estimate import estimate_macro as reference_estimate
from test_arch import architecture_space

from repro.search.algorithm import MSOSearcher
from repro.search.estimate import estimate_macro
from repro.tech.stdcells import VT_FLAVORS


def _shapes():
    """One spec per distinct (height, width, MCR, formats): frequency,
    supply and PPA weights never reach the estimate's fields."""
    shapes = {}
    for _, spec, _ in CASES:
        key = (spec.height, spec.width, spec.mcr, spec.input_formats, spec.weight_formats)
        shapes.setdefault(key, spec)
    return list(shapes.values())


SHAPES = _shapes()


def _fields(est):
    """Every field but the (identical) inputs, floats by ``repr``."""
    return repr((est.segments, est.area_um2, est.energy_per_cycle_pj,
                 est.leakage_mw, est.mode_input, est.mode_weight))


def _modes(spec):
    """The default mode and, where it differs, the narrowest explicit
    one: between them an FP/INT mix takes both the active and the
    bypassed alignment branch."""
    narrow = (
        min(spec.input_formats, key=lambda f: f.serial_bits),
        min(spec.weight_formats, key=lambda f: f.storage_bits),
    )
    return (None,) if narrow == spec.widest_formats else (None, narrow)


def _assert_same(spec, arch, scl, mode):
    new = estimate_macro(spec, arch, scl, mode)
    ref = reference_estimate(spec, arch, scl, mode)
    assert new.spec is spec and new.arch is arch
    assert _fields(new) == _fields(ref), (spec.describe(), arch.knob_summary(), mode)


def _shape_id(spec):
    fmts = "/".join(f.name for f in spec.input_formats)
    weights = "/".join(f.name for f in spec.weight_formats)
    return f"{spec.height}x{spec.width}-mcr{spec.mcr}-{fmts}-w{weights}"


#: Pipeline, OFU and driver knobs ``architecture_space`` leaves at their
#: defaults: every register/OFU-boundary topology, rotated over the space.
KNOBS = [
    dict(reg_after_tree=False, reg_after_sna=False, driver_strength=2),
    dict(ofu_pipeline=1, ofu_retimed=True, ofu_csel=True, driver_strength=8),
    dict(reg_after_tree=False, ofu_pipeline=2, ofu_retimed=True),
    dict(reg_after_sna=False, ofu_pipeline=2, ofu_csel=True, driver_strength=2),
    dict(reg_after_tree=False, ofu_pipeline=1, driver_strength=8),
    dict(ofu_retimed=True),
]


@pytest.mark.parametrize("spec", SHAPES, ids=[_shape_id(s) for s in SHAPES])
def test_architecture_space_matches_reference(spec, scl):
    space = architecture_space(spec)
    assert space
    for i, base in enumerate(space):
        for j, vt in enumerate(sorted(VT_FLAVORS)):
            arch = base.replace(vt=vt)
            for mode in _modes(spec):
                _assert_same(spec, arch, scl, mode)
            _assert_same(spec, arch.replace(**KNOBS[(i + j) % len(KNOBS)]), scl, None)


def test_searched_architectures_match_reference(scl, monkeypatch):
    """Every architecture a golden search prices, priced with the
    nominal library and, for the corner cases, the signoff library.
    The search's pricings are collected by wrapping the module global
    it calls, as ``tests/test_search_work.py`` counts them."""
    from repro.options import CompileOptions
    from repro.search import algorithm
    from repro.signoff.corners import worst_corner_scl
    from repro.tech.process import GENERIC_40NM

    priced = set()
    real = algorithm.estimate_macro

    def recording(spec, arch, library, *args, **kwargs):
        est = real(spec, arch, library, *args, **kwargs)
        priced.add(arch)
        return est

    monkeypatch.setattr(algorithm, "estimate_macro", recording)
    checked = 0
    for _, spec, options in CASES:
        priced.clear()
        MSOSearcher(scl, vt=options.get("vt", "svt"), seed=options.get("seed")).search(spec)
        archs = set(priced)
        libraries = [scl]
        corners = CompileOptions(**options).corner_set()
        if corners is not None:
            signoff = worst_corner_scl(GENERIC_40NM, corners)
            if signoff is not None:
                libraries.append(signoff)
        for library in libraries:
            for arch in archs:
                for mode in _modes(spec):
                    _assert_same(spec, arch, library, mode)
                    checked += 1
    assert checked > 1000


def test_estimate_errors_match_reference(scl):
    """An architecture the spec rejects raises the same error in both."""
    spec = next(s for s in SHAPES if s.mcr > 2)
    arch = next(a for a in architecture_space(SHAPES[0]) if a.mult_style == "oai22")
    with pytest.raises(Exception) as new:
        estimate_macro(spec, arch, scl)
    with pytest.raises(Exception) as ref:
        reference_estimate(spec, arch, scl)
    assert type(new.value) is type(ref.value)
    assert str(new.value) == str(ref.value)
