"""Architecture knobs and design-space enumeration."""

from typing import Tuple

import pytest
from reference.estimate import subtree_inputs

from repro.arch import MEMCELLS, MULT_STYLES, TREE_STYLES, MacroArchitecture
from repro.errors import SpecificationError
from repro.spec import INT4, MacroSpec


def architecture_space(spec: MacroSpec) -> Tuple[MacroArchitecture, ...]:
    """Enumerate the full discrete design space valid for ``spec``.

    The searcher does not brute-force this set (it walks Algorithm 1's
    heuristic moves); the tests sample from it to check the estimator,
    the synthesis passes and space construction.
    """
    points = []
    for memcell in MEMCELLS:
        for mult in MULT_STYLES:
            if mult == "oai22" and spec.mcr > 2:
                continue
            for style in TREE_STYLES:
                fa_options = (0,) if style != "mixed" else (0, 1, 2, 3)
                for fa in fa_options:
                    for split in (1, 2, 4):
                        if spec.height // split < 4:
                            continue
                        points.append(
                            MacroArchitecture(
                                memcell=memcell,
                                mult_style=mult,
                                tree_style=style,
                                tree_fa_levels=fa,
                                column_split=split,
                            )
                        )
    return tuple(points)


def test_default_architecture_is_valid():
    arch = MacroArchitecture()
    arch.validate_against(MacroSpec())


def test_oai22_limited_to_mcr2():
    arch = MacroArchitecture(mult_style="oai22")
    arch.validate_against(MacroSpec(mcr=2))
    with pytest.raises(SpecificationError):
        arch.validate_against(MacroSpec(mcr=4))


def test_column_split_floor():
    spec = MacroSpec(height=8, width=8)
    with pytest.raises(SpecificationError):
        MacroArchitecture(column_split=4).validate_against(spec)
    MacroArchitecture(column_split=2).validate_against(spec)


def test_fa_levels_only_for_mixed():
    with pytest.raises(SpecificationError):
        MacroArchitecture(tree_style="rca", tree_fa_levels=2)


def test_invalid_knob_values():
    with pytest.raises(SpecificationError):
        MacroArchitecture(memcell="SRAM4T")
    with pytest.raises(SpecificationError):
        MacroArchitecture(column_split=3)
    with pytest.raises(SpecificationError):
        MacroArchitecture(driver_strength=16)
    with pytest.raises(SpecificationError):
        MacroArchitecture(ofu_pipeline=5)


def test_replace_is_functional():
    a = MacroArchitecture()
    b = a.replace(ofu_csel=True)
    assert b.ofu_csel and not a.ofu_csel
    assert a == MacroArchitecture()


def test_replace_matches_dataclasses_replace():
    import dataclasses
    import pickle

    a = MacroArchitecture(tree_style="cmp42", column_split=2)
    for changes in ({}, {"driver_strength": 8, "vt": "lvt"}, {"ofu_pipeline": 2}):
        b, ref = a.replace(**changes), dataclasses.replace(a, **changes)
        assert b == ref and hash(b) == hash(ref) and repr(b) == repr(ref)
        assert b.to_dict() == ref.to_dict()
        assert pickle.dumps(b) == pickle.dumps(ref)


def test_replace_validates_like_the_constructor():
    a = MacroArchitecture()
    with pytest.raises(SpecificationError):
        a.replace(column_split=3)
    with pytest.raises(SpecificationError):
        a.replace(vt="xvt")
    with pytest.raises(SpecificationError):
        a.replace(tree_style="rca", tree_fa_levels=1)
    with pytest.raises(TypeError):
        a.replace(no_such_knob=1)


def test_knob_summary_distinguishes_points():
    a = MacroArchitecture()
    b = a.replace(tree_fa_levels=2)
    c = a.replace(ofu_csel=True)
    assert len({a.knob_summary(), b.knob_summary(), c.knob_summary()}) == 3


def test_subtree_inputs():
    spec = MacroSpec(height=64, width=64)
    assert subtree_inputs(MacroArchitecture(column_split=2), spec) == 32
    assert subtree_inputs(MacroArchitecture(column_split=4), spec) == 16


def test_architecture_space_respects_spec():
    spec = MacroSpec(height=64, width=64, mcr=4)
    space = architecture_space(spec)
    assert space, "space must be non-empty"
    assert all(p.mult_style != "oai22" for p in space)
    spec2 = MacroSpec(height=64, width=64, mcr=2)
    assert any(p.mult_style == "oai22" for p in architecture_space(spec2))


def test_architecture_space_points_all_valid():
    spec = MacroSpec(
        height=16, width=16, input_formats=(INT4,), weight_formats=(INT4,)
    )
    for point in architecture_space(spec):
        point.validate_against(spec)
