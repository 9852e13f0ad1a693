"""Shared fixtures: cell library, process, subcircuit library, specs.

The subcircuit library takes a few seconds to characterize, so it is
built once per session.  Small specs keep netlist-level tests fast while
still exercising every datapath feature (MCR banking, OFU fusion, FP
alignment).
"""

from __future__ import annotations

import pytest

from repro.arch import MacroArchitecture
from repro.spec import FP4, FP8, INT4, INT8, MacroSpec
from repro.tech.process import GENERIC_40NM
from repro.tech.stdcells import default_library


@pytest.fixture(scope="session")
def library():
    return default_library()


@pytest.fixture(scope="session")
def process():
    return GENERIC_40NM


@pytest.fixture(scope="session")
def scl():
    from repro.scl.library import default_scl

    return default_scl()


@pytest.fixture
def walks(monkeypatch):
    """Counts full NetView walks, wrapping the constructor by name as
    the end-to-end benchmark does; views derived without a walk are not
    built through it."""
    from repro.rtl.netview import NetView

    count = [0]
    init = NetView.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(NetView, "__init__", counted)
    return count


@pytest.fixture
def builds(monkeypatch):
    """Records the view of every timing-structure build
    (``builds["sta"]``) and cell-schedule build (``builds["cells"]``),
    wrapping their constructors by name as ``walks`` does."""
    from repro.rtl.netview import CellSchedule
    from repro.sta.analysis import _TimingArrays

    views = {"sta": [], "cells": []}
    for key, cls in (("sta", _TimingArrays), ("cells", CellSchedule)):

        def counted(self, view, *args, _init=cls.__init__, _key=key, **kwargs):
            views[_key].append(view)
            _init(self, view, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return views


@pytest.fixture
def small_spec():
    """8x8, MCR=2, INT4: the smallest spec with all datapath features."""
    return MacroSpec(
        height=8,
        width=8,
        mcr=2,
        input_formats=(INT4,),
        weight_formats=(INT4,),
        mac_frequency_mhz=400.0,
    )


@pytest.fixture
def paper_spec():
    """The Fig. 8 specification (H=W=64, MCR=2, INT4/8 + FP4/8, 800 MHz)."""
    return MacroSpec(
        height=64,
        width=64,
        mcr=2,
        input_formats=(INT4, INT8, FP4, FP8),
        weight_formats=(INT4, INT8, FP4, FP8),
        mac_frequency_mhz=800.0,
    )


@pytest.fixture
def default_arch():
    return MacroArchitecture()
