"""One declaration per bound: each numeric config leaf states its interval.

Every int/float leaf of the config tree (:class:`~repro.workload.scenario.ScenarioConfig`
and its blocks, :class:`~repro.workload.devices.DeviceClass` and every
:class:`~repro.faults.spec.FaultSpec`) is declared with :func:`bound`, which
records the leaf's interval in the field's metadata, and the class's
``__post_init__`` calls :func:`check_bounds`::

    upload_rate_fraction: float = bound("(0, 1]", 0.8)

The interval is written in the usual notation, ``inf`` for an unbounded
end.  The comparisons are chained, so NaN is always rejected, and ±inf is
rejected unless the interval closes on it.  ``None`` passes only on a leaf
annotated ``X | None``.  Rules that tie two fields together stay
hand-written next to the check.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from typing import Any

__all__ = ["Interval", "bound", "check_bounds"]


@dataclass(frozen=True)
class Interval:
    """A real interval; ``text`` is how it was written, e.g. ``"(0, 1]"``."""

    text: str
    lo: float
    hi: float
    lo_open: bool
    hi_open: bool

    @classmethod
    def parse(cls, text: str) -> "Interval":
        left, right = text[0], text[-1]
        lo, hi = (float(end) for end in text[1:-1].split(","))
        if left not in "[(" or right not in "])" or not lo <= hi:
            raise ValueError(f"malformed interval {text!r}")
        return cls(text, lo, hi, left == "(", right == ")")

    def __contains__(self, value: Any) -> bool:
        lo, hi = self.lo, self.hi
        if self.lo_open:
            return lo < value < hi if self.hi_open else lo < value <= hi
        return lo <= value < hi if self.hi_open else lo <= value <= hi


def bound(interval: str, default: Any = MISSING) -> Any:
    """A dataclass field whose value must lie in ``interval``."""
    return field(default=default, metadata={"interval": Interval.parse(interval)})


@lru_cache(maxsize=None)
def _declared(cls: type) -> tuple[tuple[str, Interval, bool], ...]:
    """``(name, interval, accepts None)`` for each bounded field of ``cls``."""
    return tuple(
        (f.name, f.metadata["interval"],
         "None" in (part.strip() for part in str(f.type).split("|")))
        for f in fields(cls) if "interval" in f.metadata)


def check_bounds(obj: Any) -> None:
    """Reject any bounded field of ``obj`` whose value is outside its interval."""
    for name, interval, optional in _declared(type(obj)):
        value = getattr(obj, name)
        if value is None and optional:
            continue
        try:
            inside = value in interval
        except TypeError:  # None on a required leaf, a string...
            inside = False
        if not inside:
            raise ValueError(f"{type(obj).__name__}.{name} must be in "
                             f"{interval.text}, got {value!r}")
