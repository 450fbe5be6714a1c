"""In-memory span recorder: nesting, self time, JSONL export.

A span is ``(name, start, end, parent)``.  Spans nest strictly (the
harness is single-threaded, so the open spans form a stack) and are kept
in four flat arrays — a traced ``vod_evening`` records several hundred
thousand of them, and tuples or objects would cost more than the work
being timed.  Nothing is written until :meth:`SpanRecorder.write_jsonl`.

*Self time* of a span is its duration minus the part of that interval its
direct children cover; summed over every span it equals the duration of
the root spans, which is what lets the harness say which share of a run's
wall time the named layers account for.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["SpanRecorder", "SpanTotals"]


@dataclass
class SpanTotals:
    """Aggregate of every span sharing one name."""

    count: int = 0
    #: Sum of durations (a parent's total includes its children).
    total_s: float = 0.0
    #: Sum of self times (children excluded) — additive across names.
    self_s: float = 0.0


class SpanRecorder:
    """Records nested spans against ``clock`` (seconds, monotonic)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self._name)

    # ------------------------------------------------------------ recording

    def name_id(self, name: str) -> int:
        """Intern ``name``; hot paths resolve it once and call :meth:`begin`."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span under the currently open one; returns its id."""
        sid = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(-1.0)
        self._stack.append(sid)
        self._start.append(self.clock())
        return sid

    def end(self, sid: int) -> None:
        """Close span ``sid``, which must be the innermost open span."""
        now = self.clock()
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(
                f"span {sid} ({self._names[self._name[sid]]}) closed out of order")
        self._stack.pop()
        self._end[sid] = now

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self.begin(self.name_id(name))
        try:
            yield sid
        finally:
            self.end(sid)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(sid)

        return traced

    # ------------------------------------------------------------- reading

    def totals(self) -> dict[str, SpanTotals]:
        """Per-name count, total and self time over every closed span."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        n = len(self._name)
        child_s = [0.0] * n
        for sid in range(n):
            parent = self._parent[sid]
            if parent >= 0:
                child_s[parent] += self._end[sid] - self._start[sid]
        out = {name: SpanTotals() for name in self._names}
        for sid in range(n):
            duration = self._end[sid] - self._start[sid]
            agg = out[self._names[self._name[sid]]]
            agg.count += 1
            agg.total_s += duration
            agg.self_s += duration - child_s[sid]
        return out

    def write_jsonl(self, path, workload: str) -> None:
        """One JSON object per span: id, name, start, end, parent, workload."""
        with open(path, "w") as out:
            for sid in range(len(self._name)):
                out.write(json.dumps({
                    "id": sid,
                    "name": self._names[self._name[sid]],
                    "start": self._start[sid],
                    "end": self._end[sid],
                    "parent": self._parent[sid],
                    "workload": workload,
                }) + "\n")
