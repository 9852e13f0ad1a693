"""Implemented compile records pinned exactly
(``tests/data/golden_implement.jsonl``).

Every case of ``golden_search.IMPLEMENT_CASES`` is compiled through the
batch worker entry point, implementation included, and must reproduce
its pinned line byte for byte: search, selection, post-layout area,
timing, power, corner signoff, the verification verdict, floats by
``repr``.  A change that moves any number fails here; if the move is
intended, regenerate with ``make golden`` and say why in CHANGES.md.

Each compile also walks its netlist into a ``NetView`` exactly once per
implement attempt, and the view its final netlist carries (installed by
``optimize``, re-resolved by ref-only edits) equals a fresh walk field
by field.
"""

from __future__ import annotations

import json

import pytest
from golden_search import IMPLEMENT_CASES, IMPLEMENT_PATH, golden_line
from test_netview_reuse import assert_same_view

from repro.compiler import syndcim
from repro.rtl.netview import NetView, net_view

#: Full NetView walks per compile where not 1: one per implement
#: attempt, and the fig7 spec misses timing once and escalates.
WALKS = {"fig7-escalates": 2}


def _pinned():
    lines = IMPLEMENT_PATH.read_text().splitlines()
    return {json.loads(line)["case"]: line for line in lines}


PINNED = _pinned()


def test_every_case_is_pinned_once():
    assert list(PINNED) == [case for case, _, _ in IMPLEMENT_CASES]


@pytest.mark.parametrize(
    "case", IMPLEMENT_CASES, ids=[case for case, _, _ in IMPLEMENT_CASES]
)
def test_implemented_record_matches_golden(case, library, walks, monkeypatch):
    netlists = []
    to_record = syndcim.result_to_record

    def keep_netlist(result):
        netlists.append(result.implementation.netlist)
        return to_record(result)

    monkeypatch.setattr(syndcim, "result_to_record", keep_netlist)
    assert golden_line(*case, implement=True) == PINNED[case[0]]
    expected = WALKS.get(case[0], 1)
    assert walks[0] == expected
    (netlist,) = netlists
    view = net_view(netlist, library)
    assert walks[0] == expected  # the flow left a current view
    assert_same_view(view, NetView(netlist, library))
