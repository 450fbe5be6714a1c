"""GUID cloning and re-imaging (paper §6.2, Figure 12).

The paper instrumented the client with per-boot *secondary GUIDs* and found
that 99.4% of the resulting per-installation graphs were linear chains, but
0.6% were trees — evidence of installations rolled back to earlier states.
The common non-linear patterns and the authors' interpretations:

* one long branch plus a single one-vertex short branch (46.2%) — a failed
  software update rolled back;
* two long branches (6.2%) — a restored backup;
* several short/medium branches (23.5%) — nightly re-imaging (Internet
  cafes) or workstation cloning from a master image;
* highly irregular patterns (the rest) — unexplained.

This model *causes* those behaviours: affected installations snapshot their
identity (as a disk image would) and later restore it, so the branching
shows up in the login records exactly as production saw it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bounds import bound, check_bounds
from repro.core.peer import PeerNode
from repro.core.system import NetSessionSystem
from repro.workload.population import DAY, Population

__all__ = ["CloningConfig", "CloningModel"]


@dataclass(frozen=True)
class CloningConfig:
    """Rollback incidence and pattern mix (Figure 12 calibration)."""

    #: Fraction of installations that experience any rollback (0.6%).
    affected_fraction: float = bound("[0, 1]", 0.006)
    #: Pattern mix among affected installations.
    failed_update_weight: float = bound("[0, inf)", 0.462)
    restored_backup_weight: float = bound("[0, inf)", 0.062)
    reimaging_weight: float = bound("[0, inf)", 0.235)
    irregular_weight: float = bound("[0, inf)", 0.241)

    def __post_init__(self):
        check_bounds(self)
        if self.failed_update_weight + self.restored_backup_weight \
                + self.reimaging_weight + self.irregular_weight <= 0:
            raise ValueError("pattern weights must have a positive sum")


class CloningModel:
    """Schedules snapshot/restore sequences for an affected subset of peers."""

    PATTERNS = ("failed_update", "restored_backup", "reimaging", "irregular")

    def __init__(self, system: NetSessionSystem, config: CloningConfig | None = None):
        self.system = system
        self.config = config if config is not None else CloningConfig()
        self.rng = random.Random(system.rng.getrandbits(64))
        self.assigned: dict[str, str] = {}

    def apply(self, population: Population, duration_days: float) -> dict[str, int]:
        """Pick affected peers and schedule their rollback behaviour.

        Returns the pattern census.
        """
        cfg = self.config
        weights = (cfg.failed_update_weight, cfg.restored_backup_weight,
                   cfg.reimaging_weight, cfg.irregular_weight)
        census = {p: 0 for p in self.PATTERNS}
        for row in range(population.peer_count()):
            if self.rng.random() >= cfg.affected_fraction:
                continue
            peer = population.peers[row]
            pattern = self.rng.choices(self.PATTERNS, weights=weights, k=1)[0]
            self.assigned[peer.guid] = pattern
            census[pattern] += 1
            getattr(self, f"_schedule_{pattern}")(peer, duration_days)
        return census

    # ---------------------------------------------------------------- patterns

    def _schedule_failed_update(self, peer: PeerNode, duration_days: float) -> None:
        """Snapshot → one boot on the new state → roll back → continue.

        Produces one long chain with a single one-vertex side branch.
        """
        t = self.rng.uniform(0.2, 0.7) * duration_days * DAY

        def snapshot_and_fail(p: PeerNode = peer) -> None:
            snap = p.snapshot_identity()
            p.boot()  # the boot whose secondary GUID becomes the dead branch
            self.system.sim.schedule(
                self.rng.uniform(600.0, 7200.0),
                lambda: (p.restore_identity(snap), p.boot()),
            )

        self.system.sim.schedule_at(t, snapshot_and_fail)

    def _schedule_restored_backup(self, peer: PeerNode, duration_days: float) -> None:
        """Run for a while, restore an old backup, run again: two long branches."""
        snap_t = self.rng.uniform(0.1, 0.3) * duration_days * DAY
        restore_t = self.rng.uniform(0.6, 0.8) * duration_days * DAY
        holder: dict[str, object] = {}

        def take_snapshot(p: PeerNode = peer) -> None:
            holder["snap"] = p.snapshot_identity()

        def restore(p: PeerNode = peer) -> None:
            snap = holder.get("snap")
            if snap is not None:
                p.restore_identity(snap)  # type: ignore[arg-type]
                p.boot()

        self.system.sim.schedule_at(snap_t, take_snapshot)
        self.system.sim.schedule_at(restore_t, restore)

    def _schedule_reimaging(self, peer: PeerNode, duration_days: float) -> None:
        """Nightly restore from a master image: several short branches."""
        holder: dict[str, object] = {}

        def take_master(p: PeerNode = peer) -> None:
            holder["snap"] = p.snapshot_identity()

        self.system.sim.schedule_at(0.25 * DAY, take_master)
        nights = int(duration_days) - 1
        for night in range(1, max(2, nights + 1)):
            t = night * DAY + self.rng.uniform(0.0, 3600.0)

            def reimage(p: PeerNode = peer) -> None:
                snap = holder.get("snap")
                if snap is not None:
                    p.restore_identity(snap)  # type: ignore[arg-type]
                    # A few boots during the day off the restored image.
                    p.boot()
                    self.system.sim.schedule(
                        self.rng.uniform(3600.0, 14400.0), p.boot
                    )

            self.system.sim.schedule_at(t, reimage)

    def _schedule_irregular(self, peer: PeerNode, duration_days: float) -> None:
        """Random snapshot/restore chaos (the paper's unexplained patterns)."""
        holder: dict[str, object] = {}
        events = self.rng.randint(3, 6)
        for _ in range(events):
            t = self.rng.uniform(0.05, 0.95) * duration_days * DAY

            def chaos(p: PeerNode = peer) -> None:
                if "snap" not in holder or self.rng.random() < 0.5:
                    holder["snap"] = p.snapshot_identity()
                else:
                    p.restore_identity(holder["snap"])  # type: ignore[arg-type]
                p.boot()

            self.system.sim.schedule_at(t, chaos)
