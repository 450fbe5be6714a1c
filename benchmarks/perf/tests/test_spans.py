"""Span recorder: nesting and self-time arithmetic on a synthetic tree."""

import json

import pytest

from benchmarks.perf.spans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def synthetic_tree():
    """root[0,10] { a[1,4] { b[2,3] }, a[5,7], c[7,9] }"""
    clock = FakeClock()
    rec = SpanRecorder(clock)
    ids = {name: rec.name_id(name) for name in ("root", "a", "b", "c")}

    def at(t):
        clock.now = t

    root = rec.begin(ids["root"])
    at(1); a1 = rec.begin(ids["a"])
    at(2); b = rec.begin(ids["b"])
    at(3); rec.end(b)
    at(4); rec.end(a1)
    at(5); a2 = rec.begin(ids["a"])
    at(7); rec.end(a2)
    c = rec.begin(ids["c"])
    at(9); rec.end(c)
    at(10); rec.end(root)
    return rec


def test_totals_and_self_times():
    totals = synthetic_tree().totals()
    assert totals["root"].count == 1
    assert totals["root"].total_s == 10
    assert totals["root"].self_s == 10 - 3 - 2 - 2  # minus direct children only
    assert totals["a"].count == 2
    assert totals["a"].total_s == 5
    assert totals["a"].self_s == 4  # b's second is not a's
    assert totals["b"].self_s == 1
    assert totals["c"].self_s == 2


def test_self_times_sum_to_the_root():
    totals = synthetic_tree().totals()
    assert sum(t.self_s for t in totals.values()) == totals["root"].total_s == 10


def test_out_of_order_close_is_an_error():
    rec = SpanRecorder(FakeClock())
    outer = rec.begin(rec.name_id("outer"))
    rec.begin(rec.name_id("inner"))
    with pytest.raises(RuntimeError, match="out of order"):
        rec.end(outer)


def test_totals_refuse_open_spans():
    rec = SpanRecorder(FakeClock())
    rec.begin(rec.name_id("open"))
    with pytest.raises(RuntimeError, match="still open"):
        rec.totals()


def test_wrap_records_even_when_the_call_raises():
    rec = SpanRecorder(FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert rec.totals()["boom"].count == 1


def test_jsonl_has_name_start_end_parent_workload(tmp_path):
    rec = synthetic_tree()
    path = tmp_path / "trace.jsonl"
    rec.write_jsonl(path, "w1")
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(rec) == 5
    assert rows[0] == {"id": 0, "name": "root", "start": 0.0, "end": 10.0,
                       "parent": -1, "workload": "w1"}
    assert rows[2]["name"] == "b" and rows[2]["parent"] == 1
