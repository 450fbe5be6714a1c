"""The seed-42 benchmark panel keeps both halves of its trace digest.

``tests/golden/panel_digests.json`` is the output of ``python -m
tests.panel_digests --seed 42 --json``: the record and event digests of
all 32 panel traces (8 per workload).  A refactor keeps both halves; a
perf-only change keeps the record half.  A change that means to move a
half re-records the file and says which half moved, and why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.panel_digests import panel_rows

GOLDEN = Path(__file__).parent / "golden" / "panel_digests.json"


@pytest.mark.slow
def test_seed_42_panel_keeps_both_digest_halves():
    pinned = json.loads(GOLDEN.read_text())
    rows = panel_rows(42)
    assert len(pinned) == 32
    assert [row[:2] for row in rows] == [row[:2] for row in pinned]
    moved = [f"{name} {seed}: {half} digest moved"
             for (name, seed, *now), (*_, record, event) in zip(rows, pinned)
             for half, new, old in zip(("record", "event"), now,
                                       (record, event))
             if new != old]
    assert not moved, "\n".join(moved)
