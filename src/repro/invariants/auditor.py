"""The invariant auditor: runs checkers on a cadence and at end-of-run.

The auditor is the sanitizer runtime: :class:`~repro.core.system.NetSessionSystem`
constructs one at the end of ``__init__`` and (unless the mode resolves to
``off``) installs its sampled audit as the simulator's audit hook, which
fires every ``every_events`` processed events — after the post-event flow
flush, so rates are settled — plus on demand via :meth:`audit`.

Modes:

* ``observe`` — violations are recorded (deduplicated, capped) and surfaced
  through :class:`InvariantStats`/``SystemStats``; nothing raises.
* ``strict`` — the first *error*-severity violation raises
  :class:`~repro.invariants.violation.InvariantViolationError`, which
  propagates out of ``Simulator.run``.  Warnings are still only recorded.
* ``off`` — no hook is installed and :meth:`audit` is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.config import InvariantConfig
from repro.counters import Counters
from repro.invariants.checkers import CHECKERS, Checker
from repro.invariants.violation import (
    ERROR, InvariantViolation, InvariantViolationError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import NetSessionSystem

__all__ = ["InvariantAuditor", "InvariantStats"]


@dataclass
class InvariantStats(Counters):
    """Audit counters, flattened into ``SystemStats`` (``inv_*``)."""

    #: Effective mode after ``auto`` resolution.
    mode: str = "off"
    #: Sampled audits run by the simulator hook.
    audits: int = 0
    #: Full (end-of-run) audits run.
    final_audits: int = 0
    #: Individual checker invocations.
    checks: int = 0
    #: Distinct violations currently recorded / total occurrences seen.
    violations: int = 0
    violation_occurrences: int = 0
    errors: int = 0
    warnings: int = 0
    #: Distinct violations dropped past the ``max_violations`` cap.
    dropped: int = 0

    def summary(self, violations: Iterable[dict]) -> dict[str, object]:
        """The audit report: these counters plus a ``violations`` list of
        :meth:`~repro.invariants.InvariantViolation.as_dict` entries — what
        ``repro audit``, drill reports and artifacts print and serialize."""
        return {**self.as_dict(), "violations": list(violations)}


class InvariantAuditor:
    """Runs the registered checkers against one system."""

    def __init__(self, system: "NetSessionSystem", config: InvariantConfig):
        self.system = system
        self.config = config
        self.mode = config.resolve_mode()
        self.violations: dict[tuple[str, str, str], InvariantViolation] = {}
        #: The live audit counters (``SystemStats`` snapshots them).
        self.stats = InvariantStats(mode=self.mode)
        if config.checkers:
            unknown = [n for n in config.checkers if n not in CHECKERS]
            if unknown:
                raise ValueError(
                    f"unknown invariant checkers: {', '.join(unknown)} "
                    f"(available: {', '.join(CHECKERS)})"
                )
            selected = [CHECKERS[n] for n in config.checkers]
        else:
            selected = list(CHECKERS.values())
        self._sampled = [c for c in selected if not c.final_only]
        self._all = selected

    # ------------------------------------------------------------------ wiring

    def install(self) -> None:
        """Attach the sampled audit to the system's simulator (unless off)."""
        if self.mode != "off":
            self.system.sim.set_audit_hook(
                self._sampled_audit, every_events=self.config.every_events
            )

    def _sampled_audit(self) -> None:
        self.stats.audits += 1
        self._run(self._sampled)

    def audit(self, *, final: bool = False) -> list[InvariantViolation]:
        """Run the checkers now; with ``final=True`` include the
        reconciliation checkers that only make sense at end-of-run.

        Returns the full (deduplicated) violation list.  In strict mode an
        error-severity violation raises instead.
        """
        if self.mode != "off":
            if final:
                self.stats.final_audits += 1
                self._run(self._all)
            else:
                self.stats.audits += 1
                self._run(self._sampled)
        return self.report()

    def _run(self, checkers: list[Checker]) -> None:
        for checker in checkers:
            self.stats.checks += 1
            name = checker.name

            def report(severity: str, subject: str, detail: str,
                       _name: str = name) -> None:
                self._record(_name, severity, subject, detail)

            checker.func(self.system, report)

    # --------------------------------------------------------------- recording

    def _record(self, invariant: str, severity: str, subject: str,
                detail: str) -> None:
        now = self.system.sim.now
        key = (invariant, severity, subject)
        stats = self.stats
        violation = self.violations.get(key)
        if violation is not None:
            violation.count += 1
            violation.last_seen = now
            stats.violation_occurrences += 1
        elif len(self.violations) < self.config.max_violations:
            violation = InvariantViolation(
                invariant=invariant, severity=severity, subject=subject,
                detail=detail, first_seen=now, last_seen=now,
            )
            self.violations[key] = violation
            stats.violations += 1
            stats.violation_occurrences += 1
            if severity == ERROR:
                stats.errors += 1
            else:
                stats.warnings += 1
        else:
            stats.dropped += 1
            violation = InvariantViolation(
                invariant=invariant, severity=severity, subject=subject,
                detail=detail, first_seen=now, last_seen=now,
            )
        if self.mode == "strict" and severity == ERROR:
            raise InvariantViolationError(violation)

    # -------------------------------------------------------------- inspection

    def report(self) -> list[InvariantViolation]:
        """Recorded violations, errors first, then by first occurrence."""
        return sorted(
            self.violations.values(),
            key=lambda v: (v.severity != ERROR, v.first_seen, v.subject),
        )
