"""One declaration per counter: the stats-family base class and its flat view.

Every stats family (:class:`~repro.net.flows.FlowNetworkStats`,
:class:`~repro.core.control.channel.ControlChannelStats`,
:class:`~repro.invariants.InvariantStats`, and :class:`VodStats`,
:class:`DefenseStats` and :class:`SystemStats` in :mod:`repro.core.system`)
is a dataclass deriving from :class:`Counters`.  One instance is the live
accumulator its subsystem increments; :meth:`Counters.snapshot` copies it
and :meth:`Counters.as_dict` flattens it.  Whatever the flat view or the
shard merge needs to know about a field is declared on the field itself:

* :func:`counter` ``digits`` — rounded to that many decimals in the flat view;
* :func:`counter` ``gauge`` — a level, not a total: shards merge it by max;
* :func:`counter` ``then`` — ``(property, digits)``: a derived key the flat
  view emits right after this field;
* :func:`family` — a nested family, flattened under a key prefix.
"""

from __future__ import annotations

from dataclasses import field, fields, replace
from typing import Any, Optional

__all__ = ["Counters", "counter", "family"]


def counter(default: Any = 0, *, digits: Optional[int] = None,
            gauge: bool = False, then: Optional[tuple[str, int]] = None) -> Any:
    """A counter field with its flat-view and merge behaviour."""
    return field(default=default,
                 metadata={"digits": digits, "gauge": gauge, "then": then})


def family(cls: type, prefix: str) -> Any:
    """A nested stats family, flattened with ``prefix`` on every key."""
    return field(default_factory=cls, metadata={"prefix": prefix})


class Counters:
    """Base of every stats dataclass: snapshot and flat view from the fields."""

    def snapshot(self):
        """An independent copy of the current counters."""
        return replace(self)

    def as_dict(self) -> dict[str, Any]:
        """Flat key/value view for tables, JSON and digests, in field order."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if "prefix" in meta:
                for key, inner in value.as_dict().items():
                    out[meta["prefix"] + key] = inner
                continue
            digits = meta.get("digits")
            out[f.name] = value if digits is None else round(value, digits)
            if meta.get("then"):
                name, digits = meta["then"]
                out[name] = round(getattr(self, name), digits)
        return out
