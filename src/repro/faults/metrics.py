"""Recovery metrics: how fast the system heals after a fault.

For each injected fault the tracker snapshots the control plane just
before impact (connected peers, directory registrations) and then, once
recovery begins, samples the same gauges on the simulator clock until they
return to a recovery fraction of their pre-fault level (or a timeout
passes).  That yields the §3.8 story as numbers:

* **time to reconnect** — seconds from the start of recovery until the
  fleet-wide count of peers holding a control connection is back;
* **RE-ADD convergence** — seconds until the directory (soft state wiped
  with the DNs) is repopulated by peer re-registrations;

Download-level impact (completion-rate delta, fallback-to-edge fraction)
is computed from the trace by :mod:`repro.analysis.faults`, since it needs
the full log rather than live gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import NetSessionSystem

__all__ = ["FaultRecovery", "RecoveryTracker", "adversary_metrics"]


def adversary_metrics(system: "NetSessionSystem") -> dict:
    """Defense outcome vs. ground truth; {} for honest, defenseless runs.

    ``false_positive_ban_rate`` is the fraction of ever-quarantined peers
    that are *not* in ``adversary_truth`` — honest peers the defense
    wrongly banned.  ``inflated_reports_accepted`` counts accounting
    acceptances from known inflators; the §6.2 cross-check keeps it zero.

    Lives here (not in :mod:`repro.faults.drill`) so the runner's artifact
    projection can snapshot it without pulling in the drill machinery.
    """
    truth = system.adversary_truth
    engine = system.control.reputation
    if not truth and engine is None:
        return {}
    defense = system.defense
    ever_quarantined = 0
    false_positives = 0
    if engine is not None:
        for guid, entry in engine.entries():
            if entry.quarantines > 0:
                ever_quarantined += 1
                if guid not in truth:
                    false_positives += 1
    inflated_accepted = sum(
        1 for r in system.accounting.accepted
        if truth.get(r.guid) == "accounting_inflator")
    inflated_rejected = sum(
        1 for r, _ in system.accounting.rejected
        if truth.get(r.guid) == "accounting_inflator")
    return {
        "adversaries": len(truth),
        "corrupted_bytes_wasted": defense.corrupted_bytes,
        "uploader_bans": defense.uploader_bans,
        "quarantined_peers": ever_quarantined,
        "false_positive_bans": false_positives,
        "false_positive_ban_rate": (
            false_positives / ever_quarantined if ever_quarantined else 0.0),
        "inflated_reports_accepted": inflated_accepted,
        "inflated_reports_rejected": inflated_rejected,
        "registrations_evicted": defense.registrations_evicted,
        "quarantine_leaks": defense.quarantine_leaks,
    }


@dataclass
class FaultRecovery:
    """Everything measured about one fault's impact and recovery."""

    fault: str
    kind: str
    applied_at: float
    reverted_at: Optional[float] = None
    #: Gauges snapshotted immediately before the fault hit.
    pre_connected: int = 0
    pre_registrations: int = 0
    #: Gauges immediately after the fault hit (the depth of the dip).
    post_connected: int = 0
    post_registrations: int = 0
    #: Seconds from recovery start until connected peers are back to the
    #: recovery fraction of the pre-fault count; None = not yet / never.
    time_to_reconnect: Optional[float] = None
    #: Seconds from recovery start until directory registrations are back.
    re_add_convergence: Optional[float] = None

    @property
    def connected_dip(self) -> int:
        """Control connections lost to the fault."""
        return max(0, self.pre_connected - self.post_connected)

    @property
    def registrations_dip(self) -> int:
        """Directory entries lost to the fault."""
        return max(0, self.pre_registrations - self.post_registrations)


class RecoveryTracker:
    """Samples control-plane gauges after a fault until they recover.

    Runs on the simulator: a recurring timer compares the live gauges with
    the pre-fault snapshot and stops itself (cancelling its own event from
    inside the callback) once both have recovered or the timeout passes.
    A gauge that never dipped records an immediate (0.0s) recovery.
    """

    def __init__(
        self,
        system: "NetSessionSystem",
        recovery: FaultRecovery,
        *,
        recovery_fraction: float = 0.9,
        sample_interval: float = 5.0,
        timeout: float = 6 * 3600.0,
    ):
        if not 0 < recovery_fraction <= 1.0:
            raise ValueError(f"recovery_fraction must be in (0, 1], got {recovery_fraction}")
        if sample_interval <= 0:
            raise ValueError(f"sample_interval must be positive, got {sample_interval}")
        self.system = system
        self.recovery = recovery
        self.recovery_fraction = recovery_fraction
        self.sample_interval = sample_interval
        self.timeout = timeout
        self._started_at: Optional[float] = None
        self._event = None

    def start(self) -> None:
        """Begin sampling; call when recovery begins (fault reverted)."""
        if self._event is not None:
            return
        self._started_at = self.system.sim.now
        self._sample()  # the dip may already have healed
        if self._done():
            return
        self._event = self.system.sim.every(
            self.sample_interval, self._tick, first_delay=self.sample_interval
        )

    def _connected_target(self) -> int:
        # In a workload run the online population breathes with the diurnal
        # cycle, so the pre-fault count may be naturally unreachable hours
        # later; the honest target is the smaller of the snapshot and the
        # peers that are online to reconnect right now.
        online = self.system.online_peer_count()
        return int(self.recovery_fraction * min(self.recovery.pre_connected, online))

    def _registrations_target(self) -> int:
        return int(self.recovery_fraction * self.recovery.pre_registrations)

    def _sample(self) -> None:
        rec = self.recovery
        now = self.system.sim.now
        elapsed = now - (self._started_at if self._started_at is not None else now)
        control = self.system.control
        if rec.time_to_reconnect is None:
            if control.connected_peer_count() >= self._connected_target():
                rec.time_to_reconnect = elapsed
        if rec.re_add_convergence is None:
            if control.total_registrations() >= self._registrations_target():
                rec.re_add_convergence = elapsed
        return None

    def _done(self) -> bool:
        rec = self.recovery
        return rec.time_to_reconnect is not None and rec.re_add_convergence is not None

    def _tick(self) -> None:
        self._sample()
        assert self._started_at is not None
        timed_out = self.system.sim.now - self._started_at >= self.timeout
        if self._done() or timed_out:
            if self._event is not None:
                self._event.cancel()
                self._event = None
