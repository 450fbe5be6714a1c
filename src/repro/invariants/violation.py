"""Structured invariant-violation reports and the strict-mode exception.

A violation is identified by ``(invariant, severity, subject)``: repeated
occurrences of the same defect (the same session, resource, or directory
entry failing the same check on consecutive audits) collapse into one
record with an occurrence count and first/last timestamps, so a long
observe-mode run produces a readable report instead of a flood.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ERROR", "WARNING", "InvariantViolation", "InvariantViolationError"]

#: A genuine conservation/consistency breach — raises in strict mode.
ERROR = "error"
#: Legitimate soft-state drift worth surfacing (lost unregister under a
#: lossy channel, stale CN entry after a degraded peer went offline).
#: Recorded in every mode, never raised.
WARNING = "warning"


@dataclass
class InvariantViolation:
    """One distinct defect observed by the audit layer."""

    #: Name of the checker that reported it (e.g. ``flow-feasibility``).
    invariant: str
    #: ``error`` or ``warning``.
    severity: str
    #: What broke — a stable identifier used for deduplication
    #: (e.g. ``resource:uplink:peer42`` or ``session:3f2a.../cid``).
    subject: str
    #: Human-readable description from the first occurrence.
    detail: str
    #: Simulated time of the first and latest occurrence.
    first_seen: float
    last_seen: float
    #: Occurrences observed (including the first).
    count: int = 1

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly view (drill reports, ``repro audit --json``)."""
        return {
            "invariant": self.invariant,
            "severity": self.severity,
            "subject": self.subject,
            "detail": self.detail,
            "first_seen": round(self.first_seen, 3),
            "last_seen": round(self.last_seen, 3),
            "count": self.count,
        }

    def __str__(self) -> str:
        times = f"t={self.first_seen:.0f}s"
        if self.count > 1:
            times += f"..{self.last_seen:.0f}s x{self.count}"
        return f"[{self.severity}] {self.invariant} ({self.subject}, {times}): {self.detail}"


class InvariantViolationError(RuntimeError):
    """Raised in strict mode on the first error-severity violation."""

    def __init__(self, violation: InvariantViolation):
        super().__init__(str(violation))
        self.violation = violation

    def __reduce__(self):
        # The default exception reduce rebuilds from ``self.args`` (the
        # rendered string), which would leave ``violation`` holding a str
        # after a round trip through a process pool.  Rebuild from the
        # structured violation instead.
        return (InvariantViolationError, (self.violation,))
