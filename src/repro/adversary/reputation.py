"""Deterministic per-peer reputation scoring and quarantine (defense side).

The observation pipeline rides existing machinery end to end: download
sessions already track per-uploader verified bytes, corrupted pieces,
refused grants, and trickling serves; those observations ship CN-side
inside the :class:`~repro.core.messages.UsageReport` each session already
sends, and the CN feeds *accepted* reports (accounting's edge-log
cross-check has passed — rejected reports never poison reputation) into
this engine.  The engine maintains one scalar score per peer:

* **contribution-weighted** — verified megabytes delivered earn credit;
* **corruption/timeout-penalized** — corrupted pieces, refused/empty
  connections, and slow-loris serves cost score;
* **time-decayed** — the score halves every ``decay_half_life`` seconds,
  so old sins and old virtues both fade;
* **string-seeded** — each peer starts from a tiny deterministic jitter
  drawn from ``random.Random(f"repro-defense:{seed}:{guid}")``, which
  breaks ranking ties stably and independently of call order.

Scores feed candidate ranking in :func:`repro.core.selection.select_peers`
(``rank_key``), a quarantine/ban state machine with probation re-admission
(good → quarantined → probation → good), and CN registration eviction via
the ``on_quarantine`` hook.  Everything is lazy and event-free: no
simulator events are scheduled, no RNG stream shared with the simulation
is consumed, and with ``DefenseConfig.enabled=False`` the engine is never
constructed at all.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Iterator

from repro.core.system import DefenseStats

if TYPE_CHECKING:  # pragma: no cover - runtime import would be circular
    from repro.core.config import DefenseConfig
    from repro.core.control.database_node import PeerRegistration
    from repro.core.messages import UsageReport

__all__ = ["GOOD", "PROBATION", "QUARANTINED", "PeerScore", "ReputationEngine"]

#: Defense state machine states.
GOOD = "good"
QUARANTINED = "quarantined"
PROBATION = "probation"

_MB = 1024.0 * 1024.0


class PeerScore:
    """Mutable per-peer reputation record (lazy decay)."""

    __slots__ = ("score", "updated_at", "state", "quarantined_at",
                 "quarantines")

    def __init__(self, score: float, now: float):
        self.score = score
        self.updated_at = now
        self.state = GOOD
        self.quarantined_at = 0.0
        self.quarantines = 0


class ReputationEngine:
    """CN-side aggregate of session-reported per-uploader observations."""

    def __init__(self, config: "DefenseConfig", seed: int):
        self.config = config
        self._seed_token = f"repro-defense:{seed}"
        self.peers: dict[str, PeerScore] = {}
        #: Installed by the system: callable(guid) -> registrations evicted.
        self.on_quarantine: Callable[[str], int] | None = None
        #: Installed by the system: the simulation clock.  CNs read it so
        #: they need no simulator reference of their own.
        self.clock: Callable[[], float] = lambda: 0.0
        #: Aggregate counters; the system installs its own
        #: :class:`~repro.core.system.DefenseStats` here.
        self.stats = DefenseStats()

    # ------------------------------------------------------------- scoring

    def _initial_score(self, guid: str) -> float:
        # Tiny per-guid jitter: deterministic regardless of the order peers
        # are first observed in, and far below any scoring increment.
        return random.Random(f"{self._seed_token}:{guid}").random() * 1e-6

    def _entry(self, guid: str, now: float) -> PeerScore:
        entry = self.peers.get(guid)
        if entry is None:
            entry = self.peers[guid] = PeerScore(self._initial_score(guid), now)
        return entry

    def _decay(self, entry: PeerScore, now: float) -> None:
        dt = now - entry.updated_at
        if dt > 0:
            entry.score *= 0.5 ** (dt / self.config.decay_half_life)
        entry.updated_at = max(entry.updated_at, now)

    def score(self, guid: str, now: float) -> float:
        """The peer's current (decayed) score; creates the entry lazily."""
        entry = self._entry(guid, now)
        self._decay(entry, now)
        return entry.score

    def observe(self, guid: str, now: float, *, delivered_bytes: int = 0,
                corrupted_pieces: int = 0, refusals: int = 0,
                slow_serves: int = 0) -> str:
        """Fold one observation batch into the peer's score.

        Returns the resulting defense state.  Score moves trigger the state
        machine: a drop to ``quarantine_threshold`` quarantines (evicting
        the peer's registrations through ``on_quarantine``); a probation
        peer that climbs above zero is fully re-admitted.
        """
        cfg = self.config
        entry = self._entry(guid, now)
        self._decay(entry, now)
        entry.score += cfg.contribution_weight * (delivered_bytes / _MB)
        entry.score -= cfg.corruption_penalty * corrupted_pieces
        entry.score -= cfg.refusal_penalty * refusals
        entry.score -= cfg.slow_penalty * slow_serves
        entry.score = min(cfg.score_max, max(cfg.score_min, entry.score))
        if entry.state != QUARANTINED and entry.score <= cfg.quarantine_threshold:
            self._quarantine(guid, entry, now)
        elif entry.state == PROBATION and entry.score > 0.0:
            entry.state = GOOD
        return entry.state

    def _quarantine(self, guid: str, entry: PeerScore, now: float) -> None:
        entry.state = QUARANTINED
        entry.quarantined_at = now
        entry.quarantines += 1
        self.stats.quarantines += 1
        if self.on_quarantine is not None:
            self.stats.registrations_evicted += self.on_quarantine(guid)

    # ------------------------------------------------------ admission control

    def admits(self, guid: str, now: float) -> bool:
        """Selection-time gate; performs the probation transition.

        A quarantined peer is refused until ``probation_interval`` elapses,
        then re-admitted on probation with its score reset to
        ``probation_score`` — one fresh offense re-quarantines it.
        """
        entry = self.peers.get(guid)
        if entry is None or entry.state != QUARANTINED:
            return True
        if now - entry.quarantined_at < self.config.probation_interval:
            return False
        entry.state = PROBATION
        entry.score = self.config.probation_score + self._initial_score(guid)
        entry.updated_at = now
        self.stats.probations += 1
        return True

    def is_quarantined(self, guid: str, now: float) -> bool:
        """Pure check (no transitions): still inside a quarantine window?"""
        entry = self.peers.get(guid)
        return (entry is not None and entry.state == QUARANTINED
                and now - entry.quarantined_at < self.config.probation_interval)

    def rank_key(self, now: float) -> Callable[["PeerRegistration"], float]:
        """Key for ``select_peers(rank_key=...)``: decayed score, higher first."""
        return lambda reg: self.score(reg.guid, now)

    # ------------------------------------------------------------ aggregation

    def ingest_report(self, report: "UsageReport", now: float) -> None:
        """Fold an *accepted* usage report's per-uploader observations in.

        Called by the CN after the accounting cross-check passes; reports
        the edge logs contradict (the accounting-inflator profile) never
        reach here, so an attacker cannot spend fabricated bytes on
        reputation — its own or anyone else's.
        """
        self.stats.reports_ingested += 1
        for guid, nbytes in report.per_uploader_bytes.items():
            self.observe(guid, now, delivered_bytes=nbytes)
        for guid, pieces in report.per_uploader_corrupt.items():
            self.observe(guid, now, corrupted_pieces=pieces)
        for guid, count in report.per_uploader_refusals.items():
            self.observe(guid, now, refusals=count)
        for guid, count in report.per_uploader_slow.items():
            self.observe(guid, now, slow_serves=count)

    # --------------------------------------------------------------- faults

    def wipe(self) -> int:
        """Forget every score and quarantine (the ReputationWipe fault).

        Returns the number of entries dropped.  The defense re-learns from
        scratch; quarantined adversaries walk free until re-detected.
        """
        dropped = len(self.peers)
        self.peers.clear()
        return dropped

    # ---------------------------------------------------------------- audit

    def entries(self) -> Iterator[tuple[str, PeerScore]]:
        """Stable iteration for the invariant checkers."""
        return iter(self.peers.items())
