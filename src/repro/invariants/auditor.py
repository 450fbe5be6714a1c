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
from repro.invariants.checkers import CHECKERS, Checker
from repro.invariants.violation import (
    ERROR, InvariantViolation, InvariantViolationError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import NetSessionSystem

__all__ = ["InvariantAuditor", "InvariantStats"]


@dataclass(frozen=True)
class InvariantStats:
    """Point-in-time audit counters, flattened into ``SystemStats``."""

    #: Effective mode after ``auto`` resolution.
    mode: str
    #: Sampled audits run by the simulator hook.
    audits: int
    #: Full (end-of-run) audits run.
    final_audits: int
    #: Individual checker invocations.
    checks: int
    #: Distinct violations currently recorded / total occurrences seen.
    violations: int
    violation_occurrences: int
    errors: int
    warnings: int
    #: Distinct violations dropped past the ``max_violations`` cap.
    dropped: int

    def as_dict(self) -> dict[str, object]:
        return {
            "mode": self.mode,
            "audits": self.audits,
            "final_audits": self.final_audits,
            "checks": self.checks,
            "violations": self.violations,
            "violation_occurrences": self.violation_occurrences,
            "errors": self.errors,
            "warnings": self.warnings,
            "dropped": self.dropped,
        }

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
        self.dropped = 0
        self.audits = 0
        self.final_audits = 0
        self.checks = 0
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
        self.audits += 1
        self._run(self._sampled)

    def audit(self, *, final: bool = False) -> list[InvariantViolation]:
        """Run the checkers now; with ``final=True`` include the
        reconciliation checkers that only make sense at end-of-run.

        Returns the full (deduplicated) violation list.  In strict mode an
        error-severity violation raises instead.
        """
        if self.mode != "off":
            if final:
                self.final_audits += 1
                self._run(self._all)
            else:
                self.audits += 1
                self._run(self._sampled)
        return self.report()

    def _run(self, checkers: list[Checker]) -> None:
        for checker in checkers:
            self.checks += 1
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
        violation = self.violations.get(key)
        if violation is not None:
            violation.count += 1
            violation.last_seen = now
        elif len(self.violations) < self.config.max_violations:
            violation = InvariantViolation(
                invariant=invariant, severity=severity, subject=subject,
                detail=detail, first_seen=now, last_seen=now,
            )
            self.violations[key] = violation
        else:
            self.dropped += 1
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

    def error_count(self) -> int:
        """Distinct error-severity violations recorded."""
        return sum(1 for v in self.violations.values() if v.severity == ERROR)

    def warning_count(self) -> int:
        """Distinct warning-severity violations recorded."""
        return sum(1 for v in self.violations.values() if v.severity != ERROR)

    def stats(self) -> InvariantStats:
        """Snapshot the audit counters for ``SystemStats``."""
        return InvariantStats(
            mode=self.mode,
            audits=self.audits,
            final_audits=self.final_audits,
            checks=self.checks,
            violations=len(self.violations),
            violation_occurrences=sum(
                v.count for v in self.violations.values()
            ),
            errors=self.error_count(),
            warnings=self.warning_count(),
            dropped=self.dropped,
        )
