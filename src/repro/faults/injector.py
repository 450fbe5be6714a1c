"""The injector engine: deterministic application and reversal of faults.

The :class:`FaultInjector` takes a system plus a set of
:class:`~repro.faults.spec.FaultSpec` s, registers apply/revert callbacks
with the :class:`~repro.net.sim.Simulator` event loop, and keeps a
timeline of everything it did.  Determinism is the whole point: the same
(specs, seed) always produces the same injection timeline, because each
fault draws from its own string-seeded RNG and every action happens at a
declared simulated time.

Around each fault the injector snapshots control-plane gauges and, once
recovery begins, runs a :class:`~repro.faults.metrics.RecoveryTracker`
that measures time-to-reconnect and RE-ADD convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.faults.metrics import FaultRecovery, RecoveryTracker
from repro.faults.spec import FaultSpec, InjectionContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import NetSessionSystem

__all__ = ["FaultInjector", "InjectionEvent"]


@dataclass(frozen=True)
class InjectionEvent:
    """One entry of the injection timeline."""

    time: float
    fault: str
    phase: str  # "applied" | "reverted"
    detail: str = ""

    def __str__(self) -> str:
        suffix = f"  {self.detail}" if self.detail else ""
        return f"t={self.time:10.1f}s  {self.phase:9s}  {self.fault}{suffix}"


class FaultInjector:
    """Applies a fault schedule to a live system, deterministically."""

    def __init__(self, system: "NetSessionSystem", specs: Iterable[FaultSpec],
                 *, seed: int = 0):
        specs = sorted(specs, key=lambda s: (s.start, s.name))
        names = [s.name for s in specs]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate fault names: {sorted(dupes)}")
        self.system = system
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        #: Chronological record of every apply/revert performed.
        self.timeline: list[InjectionEvent] = []
        #: Per-fault recovery measurements, keyed by fault name.
        self.recoveries: dict[str, FaultRecovery] = {}
        self._armed = False

    # ------------------------------------------------------------------ arming

    def arm(self) -> None:
        """Schedule every fault with the simulator.  Call once, before run."""
        if self._armed:
            raise RuntimeError("injector is already armed")
        self._armed = True
        for spec in self.specs:
            self.system.sim.schedule_at(
                spec.start, lambda s=spec: self._apply(s)
            )

    # --------------------------------------------------------------- lifecycle

    def _context(self, spec: FaultSpec) -> InjectionContext:
        return InjectionContext(system=self.system, rng=spec.make_rng(self.seed))

    def _apply(self, spec: FaultSpec) -> None:
        control = self.system.control
        recovery = FaultRecovery(
            fault=spec.name,
            kind=spec.kind(),
            applied_at=self.system.sim.now,
            pre_connected=control.connected_peer_count(),
            pre_registrations=control.total_registrations(),
        )
        ctx = self._context(spec)
        # A fault touching a whole region mutates many links/flows at once;
        # batch() coalesces the entire apply into one rate settlement, even
        # when the injector is driven outside the simulator loop.
        with self.system.flows.batch():
            token = spec.apply(ctx)
        recovery.post_connected = control.connected_peer_count()
        recovery.post_registrations = control.total_registrations()
        self.recoveries[spec.name] = recovery
        self._record(spec, "applied", spec.describe())
        if spec.instantaneous:
            self._finish(spec, ctx, token, reverted=False)
        else:
            self.system.sim.schedule(
                spec.duration, lambda: self._revert(spec, ctx, token)
            )

    def _revert(self, spec: FaultSpec, ctx: InjectionContext, token: object) -> None:
        with self.system.flows.batch():
            spec.revert(ctx, token)
        self._finish(spec, ctx, token, reverted=True)

    def _finish(self, spec: FaultSpec, ctx: InjectionContext, token: object,
                *, reverted: bool) -> None:
        recovery = self.recoveries[spec.name]
        recovery.reverted_at = self.system.sim.now
        if reverted:
            self._record(spec, "reverted")
        RecoveryTracker(self.system, recovery).start()

    def _record(self, spec: FaultSpec, phase: str, detail: str = "") -> None:
        self.timeline.append(InjectionEvent(
            time=self.system.sim.now, fault=spec.name, phase=phase, detail=detail,
        ))

    # -------------------------------------------------------------- inspection

    def timeline_text(self) -> str:
        """The injection timeline, one line per event (deterministic)."""
        return "\n".join(str(e) for e in self.timeline)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FaultInjector faults={len(self.specs)} "
            f"applied={len(self.recoveries)} seed={self.seed}>"
        )
