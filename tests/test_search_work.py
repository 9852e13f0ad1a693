"""Exact work counts of the searcher: ``estimate_macro`` calls per search.

The end-to-end benchmark's traced run counts pricings by replacing the
module global ``repro.search.algorithm.estimate_macro`` with a counter
(its ``search.estimates``).  These tests wrap the same global, so the
count gated here is the count the benchmark reports, and a change that
prices more (or stops routing through the global) fails on a number,
not on wall time.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.search import algorithm
from repro.search.algorithm import MSOSearcher
from repro.spec import spec_from_strings


@pytest.fixture
def priced(monkeypatch):
    """``(library, architecture)`` of every ``estimate_macro`` call."""
    calls = []
    real = algorithm.estimate_macro

    def counting(spec, arch, scl, *args, **kwargs):
        calls.append((scl, arch))
        return real(spec, arch, scl, *args, **kwargs)

    monkeypatch.setattr(algorithm, "estimate_macro", counting)
    return calls


@pytest.fixture(scope="module")
def signoff3_scl():
    from repro.signoff.corners import SIGNOFF3, worst_corner_scl
    from repro.tech.process import GENERIC_40NM

    return worst_corner_scl(GENERIC_40NM, SIGNOFF3)


#: (case id, spec, searcher options, exact pricings, feasible candidates).
#: Before pricing was memoized per search these took 104, 63, 41, 73
#: and 85 calls.
CASES = [
    ("64x64-int4-int8-800", spec_from_strings(64, 64, 2, ["INT4", "INT8"], 800.0),
     {}, 77, 15),
    ("256x256-mixed-400",
     spec_from_strings(256, 256, 2, ["INT4", "INT8", "FP8", "BF16"], 400.0),
     {}, 52, 27),
    ("16x16-mcr1-int8-fp8-200", spec_from_strings(16, 16, 1, ["INT8", "FP8"], 200.0),
     {}, 36, 36),
    ("32x32-vt-auto-600", spec_from_strings(32, 32, 2, ["INT4", "INT8"], 600.0),
     {"vt": "auto"}, 64, 35),
    ("32x32-signoff3-600", spec_from_strings(32, 32, 2, ["INT4", "INT8"], 600.0),
     {"signoff": True}, 77, 24),
]


@pytest.mark.parametrize(
    "spec, options, pricings, candidates",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_search_prices_each_architecture_once(
    priced, scl, signoff3_scl, spec, options, pricings, candidates
):
    options = dict(options)
    if options.pop("signoff", False):
        options["signoff_scl"] = signoff3_scl
    result = MSOSearcher(scl, **options).search(spec)
    assert len(result.candidates) == candidates
    assert len(priced) == pricings
    repeats = [key for key, n in Counter(priced).items() if n > 1]
    assert repeats == []


def test_memo_lives_for_one_search(priced, scl):
    """A second search of the same spec prices everything again."""
    spec = CASES[0][1]
    searcher = MSOSearcher(scl)
    searcher.search(spec)
    first = len(priced)
    searcher.search(spec)
    assert len(priced) == 2 * first


def test_phase_called_directly_prices_afresh(priced, scl):
    """A phase prices through the memo it is given and keeps none of
    its own: a fresh memo per call prices each time."""
    spec = CASES[0][1]
    searcher = MSOSearcher(scl)
    arch = searcher.search(spec).frontier[0].arch
    priced.clear()
    searcher._estimate(spec, arch, {})
    searcher._estimate(spec, arch, {})
    assert len(priced) == 2


def test_failed_pricing_is_not_memoized(priced, scl):
    """A move whose pricing raises is priced (and raises) again on its
    next visit instead of being served from the memo."""
    spec = CASES[0][1]
    memo = {}
    searcher = MSOSearcher(scl)
    bad = "not-an-architecture"
    for _ in range(2):
        with pytest.raises(AttributeError):
            searcher._estimate(spec, bad, memo)
    assert len(priced) == 2
    assert memo == {}


def test_shared_searcher_keeps_concurrent_searches_apart(scl):
    """One searcher shared by threads searching different specs: every
    result equals the serial search of its own spec."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    def summary(result):
        return (
            [(e.arch, repr(e.power_mw), repr(e.area_um2)) for e in result.frontier],
            len(result.candidates),
            result.fix_counts,
        )

    specs = [case[1] for case in CASES[:3]]
    searcher = MSOSearcher(scl)
    serial = [summary(searcher.search(spec)) for spec in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(3) as pool:
            got = list(pool.map(lambda s: summary(searcher.search(s)), specs * 4))
    finally:
        sys.setswitchinterval(interval)
    assert got == serial * 4
