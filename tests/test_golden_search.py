"""Search-only records pinned exactly (``tests/data/golden_search.jsonl``).

Every case of ``golden_search.CASES`` is searched through the batch
worker entry point and must reproduce its pinned line byte for byte:
frontier, selection, candidate and fix counts, signoff slacks, floats by
``repr``.  A change that moves any number fails here; if the move is
intended, regenerate with ``make golden`` and say why in CHANGES.md.
"""

from __future__ import annotations

import json

import pytest
from golden_search import CASES, GOLDEN_PATH, golden_line


def _pinned():
    lines = GOLDEN_PATH.read_text().splitlines()
    return {json.loads(line)["case"]: line for line in lines}


PINNED = _pinned()


def test_every_case_is_pinned_once():
    assert list(PINNED) == [case for case, _, _ in CASES]


@pytest.mark.parametrize("case", CASES, ids=[case for case, _, _ in CASES])
def test_search_record_matches_golden(case):
    assert golden_line(*case) == PINNED[case[0]]
