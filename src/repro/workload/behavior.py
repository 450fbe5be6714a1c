"""User behaviour: abandonment, pauses, odd failures, setting changes.

Calibration targets:

* **§5.2 / Figure 7** — downloads are paused/terminated more often the
  longer they take: 3% of infrastructure-only vs 8% of peer-assisted
  downloads, with the gap explained entirely by file size.  We model a
  per-user *patience* drawn from a heavy-tailed distribution; if a download
  outlives the patience, the user kills it.  Size-dependent termination is
  therefore *emergent*, exactly as the paper argues.
* **§5.2** — a small rate of "other" failures (disk full, etc.): 0.1–0.2%.
* **Table 3** — upload-setting changes are rare: of initially-disabled
  peers 0.03% toggled once and 0.01% more than once; of initially-enabled
  peers 1.80% toggled once and 0.09% more than once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.records import FAILURE_OTHER
from repro.bounds import bound, check_bounds
from repro.core.swarm import DownloadSession
from repro.core.system import NetSessionSystem
from repro.workload.population import DAY, Population

__all__ = ["BehaviorConfig", "UserBehavior"]

#: Among users who pause rather than abort, probability the pause is
#: temporary: the user resumes hours later (the Download Manager's flagship
#: feature, §3.3).  The remainder pause "for later" and never resume — the
#: trace outcome the paper counts as terminated.
RESUME_LATER_PROB = 0.5
#: Table 3 (once, twice) toggle probabilities over the whole trace for
#: peers that start with uploads disabled.
TOGGLE_IF_DISABLED = (0.0003, 0.0001)


@dataclass(frozen=True)
class BehaviorConfig:
    """Knobs for user behaviour."""

    #: Median user patience (seconds of wall-clock download time tolerated).
    #: With sigma 1.5, a two-hour download is abandoned ~12% of the time, a
    #: 30-minute one ~2%, a 5-minute one ~0.4% — reproducing §5.2's 3%
    #: (infra) vs 8% (p2p) split purely through the size composition.
    patience_median: float = bound("(0, inf)", 12.0 * 3600.0)
    #: Log-normal sigma of the patience distribution.
    patience_sigma: float = bound("[0, inf)", 1.5)
    #: Probability that a download dies of a non-system cause (disk full…).
    #: Calibrated to §5.2's outcome split: ~94% complete, ~3% paused or
    #: terminated, small failure remainder dominated by non-system causes.
    other_failure_prob: float = bound("[0, 1]", 0.025)
    #: When patience runs out: probability the user aborts outright.
    abort_vs_pause: float = bound("[0, 1]", 0.5)
    #: Table 3 toggle probabilities over the whole trace for peers that
    #: start with uploads enabled (see :data:`TOGGLE_IF_DISABLED`).
    toggle_once_if_enabled: float = bound("[0, 1]", 0.0180)
    toggle_twice_if_enabled: float = bound("[0, 1]", 0.0009)

    def __post_init__(self):
        check_bounds(self)


class UserBehavior:
    """Attaches human behaviour to sessions and peers."""

    def __init__(self, system: NetSessionSystem, config: BehaviorConfig | None = None):
        self.system = system
        self.config = config if config is not None else BehaviorConfig()
        self.rng = random.Random(system.rng.getrandbits(64))

    # ------------------------------------------------------------- downloads

    def attach(self, session: DownloadSession) -> None:
        """Arm behaviour for one download session."""
        cfg = self.config
        rng = self.rng

        if rng.random() < cfg.other_failure_prob:
            # The failure strikes at some point during the download.
            delay = rng.uniform(30.0, 4 * 3600.0)
            self.system.sim.schedule(delay, lambda: self._other_failure(session))

        patience = rng.lognormvariate(0.0, cfg.patience_sigma) * cfg.patience_median
        self.system.sim.schedule(patience, lambda: self._patience_out(session))

    def _other_failure(self, session: DownloadSession) -> None:
        if session.state in ("active", "paused"):
            session.fail(FAILURE_OTHER)

    def _patience_out(self, session: DownloadSession) -> None:
        if session.state not in ("active", "paused"):
            return
        if session.progress >= 0.9:
            # Nobody walks away at 99%: let a nearly-done download finish,
            # re-checking in a while in case it stalls outright.
            self.system.sim.schedule(
                2 * 3600.0, lambda: self._patience_out(session)
            )
            return
        if self.rng.random() < self.config.abort_vs_pause:
            session.abort()
            return
        session.pause()
        if self.rng.random() < RESUME_LATER_PROB:
            delay = self.rng.uniform(2 * 3600.0, 20 * 3600.0)
            self.system.sim.schedule(delay, lambda: self._resume_later(session))
        # else: paused "for later" and forgotten — finalized as aborted at
        # the end of the trace by finalize_open_downloads().

    def _resume_later(self, session: DownloadSession, retries: int = 3) -> None:
        if session.state != "paused":
            return
        if not session.peer.online:
            # The machine is off; try again when the user is likely back.
            if retries > 0:
                self.system.sim.schedule(
                    self.rng.uniform(2 * 3600.0, 8 * 3600.0),
                    lambda: self._resume_later(session, retries - 1),
                )
            return
        session.resume()
        # The user's patience resets for the resumed attempt.
        patience = (
            self.rng.lognormvariate(0.0, self.config.patience_sigma)
            * self.config.patience_median
        )
        self.system.sim.schedule(patience, lambda: self._patience_out(session))

    # ------------------------------------------------------------ busy links

    def schedule_link_busy_periods(self, population: Population,
                                   duration_days: float) -> int:
        """Schedule foreground-traffic bursts that trigger upload back-off.

        §3.9: "peers monitor the utilization of the local network
        connections and throttle or pause uploads when the connections are
        used by other applications."  Each busy period throttles the peer's
        uploads to the back-off rate for its duration.  Returns the number
        of busy periods scheduled.
        """
        rng = self.rng
        prob_per_hour = self.system.config.client.link_busy_prob_per_hour
        if prob_per_hour <= 0:
            return 0
        horizon = duration_days * DAY
        scheduled = 0
        for peer in population.iter_peers():
            # Poisson-ish: expected busy periods over the trace.  Device
            # tiers scale the rate (a dedicated router's link is rarely
            # busy; a phone's is often); the multiplier is 1.0 — and the
            # draw sequence untouched — without a device mix.
            device = peer.device
            busy_mult = device.link_busy_mult if device is not None else 1.0
            expected = prob_per_hour * duration_days * 24.0 * busy_mult
            t = rng.expovariate(max(expected, 1e-9) / horizon)
            while t < horizon:
                length = rng.uniform(300.0, 3600.0)
                self.system.sim.schedule_at(
                    t, lambda p=peer: p.set_link_busy(True))
                self.system.sim.schedule_at(
                    min(horizon, t + length),
                    lambda p=peer: p.set_link_busy(False))
                scheduled += 1
                t += length + rng.expovariate(max(expected, 1e-9) / horizon)
        return scheduled

    # ------------------------------------------------------------- settings

    def schedule_setting_changes(self, population: Population, duration_days: float) -> int:
        """Schedule the rare upload-setting toggles of Table 3.

        Returns the number of toggle events scheduled.
        """
        cfg = self.config
        rng = self.rng
        horizon = duration_days * DAY
        scheduled = 0
        for row, enabled in enumerate(population.column("uploads_enabled")):
            if enabled:
                p_once, p_twice = cfg.toggle_once_if_enabled, cfg.toggle_twice_if_enabled
            else:
                p_once, p_twice = TOGGLE_IF_DISABLED
            draw = rng.random()
            if draw < p_twice:
                toggles = 2
            elif draw < p_twice + p_once:
                toggles = 1
            else:
                continue
            peer = population.peers[row]
            times = sorted(rng.uniform(0, horizon) for _ in range(toggles))
            for t in times:
                # Each toggle flips the setting from whatever it is then.
                self.system.sim.schedule_at(
                    t, lambda p=peer: p.set_uploads_enabled(not p.uploads_enabled)
                )
                scheduled += 1
        return scheduled
