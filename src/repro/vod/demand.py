"""VoD session arrivals and viewer behavior.

Streaming demand has a different shape from download demand: sessions
cluster hard around local prime time (catch-up TV peaks in the evening far
more sharply than software downloads do), viewers pick episodes by decayed
catch-up popularity, and a session is interactive — the viewer may give up
on a slow startup, stop partway through, seek ahead, or binge straight
into the next episode.

The generator draws from its own string-seeded RNG (like the fuzzer and
the control channels), so attaching VoD to a scenario never perturbs the
download workload's random streams — the golden-parity tests pin that.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import TYPE_CHECKING

from repro.core.streaming import StreamingSession, start_streaming
from repro.vod.catalog import Episode, VodCatalog
from repro.vod.config import VodConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.peer import PeerNode
    from repro.core.system import NetSessionSystem

__all__ = ["VodDemandGenerator", "prime_time_rate"]

_DAY = 86400.0
_HOUR = 3600.0

#: Representative timezone offsets (seconds) per geographic region, for
#: phasing the prime-time curve.  Mirrors the download layer's table but is
#: defined locally: the vod package must stay importable without workload.
_REGION_TZ = {
    "US East": -5 * _HOUR, "US West": -8 * _HOUR,
    "Americas Other": -4 * _HOUR, "Europe": 1 * _HOUR,
    "India": 5.5 * _HOUR, "China": 8 * _HOUR,
    "Asia Other": 8 * _HOUR, "Africa": 2 * _HOUR,
    "Oceania": 10 * _HOUR,
}


#: Local hour (0-24) at which session arrivals peak.
PRIME_PEAK_HOUR = 20.5
#: Sharpness of the prime-time peak: the diurnal cosine is raised to this
#: power, so larger values concentrate arrivals around the peak.
PRIME_SHARPNESS = 3.0
#: Arrival-rate floor as a fraction of the peak (overnight viewing).
OFFPEAK_FLOOR = 0.08

#: Viewers give up if playback has not started after this many seconds.
ABANDON_STARTUP_S = 45.0
#: Probability a viewer stops partway through the episode.
PARTIAL_WATCH_PROB = 0.25
#: Probability of one seek (skip-ahead) during the session.
SEEK_PROB = 0.15
#: Probability of starting the next episode after finishing one.
BINGE_PROB = 0.35


def prime_time_rate(
    t: float, tz: float, *, peak_hour: float = PRIME_PEAK_HOUR,
    sharpness: float = PRIME_SHARPNESS, floor: float = OFFPEAK_FLOOR,
) -> float:
    """Relative session-arrival rate at absolute time ``t`` (UTC seconds).

    A cosine peaking at ``peak_hour`` local time, raised to ``sharpness``
    to concentrate mass around the evening peak, with an overnight floor.
    """
    local_h = ((t + tz) % _DAY) / _HOUR
    phase = math.cos((local_h - peak_hour) / 24.0 * 2.0 * math.pi)
    shaped = ((1.0 + phase) / 2.0) ** sharpness
    return floor + (1.0 - floor) * shaped


class VodDemandGenerator:
    """Schedules viewing sessions (and their viewers' behavior) on a system."""

    def __init__(
        self,
        system: "NetSessionSystem",
        population,
        catalog: VodCatalog,
        config: VodConfig,
        *,
        seed: int,
    ):
        self.system = system
        self.population = population
        self.catalog = catalog
        self.config = config
        self.rng = random.Random(f"repro-vod:{seed}")
        self._episodes = catalog.episodes()
        self._weights = catalog.weights()
        self._peers_by_region: dict[str, list["PeerNode"]] = {}
        for peer in population.iter_peers():
            self._peers_by_region.setdefault(peer.geo_region, []).append(peer)

    # ------------------------------------------------------------ scheduling

    def schedule_all(self, horizon: float) -> int:
        """Pre-schedule every session arrival over ``[0, horizon)``."""
        cfg = self.config
        mix = self.catalog.provider.region_mix
        regions = list(mix.keys())
        shares = list(mix.values())
        cdfs: dict[str, list[float]] = {}
        for _ in range(cfg.sessions):
            episode = self._sample_episode()
            region = self.rng.choices(regions, weights=shares, k=1)[0]
            t = self._sample_arrival_time(region, horizon, cdfs)
            self.system.sim.schedule_at(
                t, lambda e=episode, r=region: self._on_arrival(e, r)
            )
        return cfg.sessions

    def _sample_episode(self) -> Episode:
        return self.rng.choices(self._episodes, weights=self._weights, k=1)[0]

    def _sample_arrival_time(self, region: str, horizon: float,
                             cdfs: dict[str, list[float]] | None = None) -> float:
        """Inverse-CDF sample from the prime-time curve for ``region``;
        ``cdfs`` keeps this ``horizon``'s curves by region."""
        cdfs = {} if cdfs is None else cdfs
        if region not in cdfs:
            tz = _REGION_TZ.get(region, 0.0)
            hours = max(1, int(horizon // _HOUR))
            cdf = cdfs[region] = []
            total = 0.0
            for h in range(hours):
                total += prime_time_rate(h * _HOUR, tz)
                cdf.append(total)
        cdf = cdfs[region]
        u = self.rng.random() * cdf[-1]
        idx = bisect.bisect_left(cdf, u)
        lo = idx * _HOUR
        return min(horizon - 1.0, lo + self.rng.uniform(0.0, _HOUR))

    # --------------------------------------------------------------- viewing

    def _on_arrival(self, episode: Episode, region: str) -> None:
        peer = self._pick_viewer(region, episode)
        if peer is None:
            return
        if not peer.online:
            peer.boot()
        self._start_viewing(peer, episode)

    def _pick_viewer(self, region: str, episode: Episode):
        def eligible(peer, need_online: bool) -> bool:
            if episode.obj.cid in peer.sessions:
                return False
            if peer.has_complete(episode.obj.cid):
                return False
            return peer.online or not need_online

        pools = []
        regional = self._peers_by_region.get(region)
        if regional:
            pools.append(regional)
        pools.append(self.population.peers)
        for need_online in (True, False):
            for pool in pools:
                for _ in range(12):
                    peer = self.rng.choice(pool)
                    if eligible(peer, need_online):
                        return peer
        return None

    def _start_viewing(self, peer: "PeerNode", episode: Episode) -> None:
        cfg = self.config
        session = start_streaming(peer, episode.obj,
                                  bitrate=cfg.bitrate_bytes_per_s)
        duration = cfg.episode_minutes * 60.0
        sim = self.system.sim

        # Startup impatience: give up if the first frame never comes.
        sim.schedule(ABANDON_STARTUP_S,
                     lambda s=session: self._abandon_if_unstarted(s))

        # Partial watch: stop partway through (decided up front).
        if self.rng.random() < PARTIAL_WATCH_PROB:
            watched = self.rng.uniform(0.2, 0.9)
            sim.schedule(ABANDON_STARTUP_S + watched * duration,
                         lambda s=session: self._stop_viewing(s))

        # One seek ahead, sometime in the first half of the episode.
        if self.rng.random() < SEEK_PROB:
            at = self.rng.uniform(0.1, 0.5) * duration
            skip = self.rng.uniform(30.0, 240.0)
            sim.schedule(at, lambda s=session, d=skip: self._seek(s, d))

        # Binge: once this episode has played out, maybe start the next.
        if self.rng.random() < BINGE_PROB:
            nxt = self.catalog.next_episode(episode)
            if nxt is not None:
                sim.schedule(1.15 * duration + 2 * ABANDON_STARTUP_S,
                             lambda s=session, p=peer, e=nxt:
                             self._maybe_binge(s, p, e))

    # The behavior callbacks below are deterministic given the simulator's
    # event order: all non-binge decisions consume RNG at scheduling time,
    # and binge re-entry draws from the generator's own stream inside the
    # (deterministic) event loop — never from any system RNG.

    def _abandon_if_unstarted(self, session: StreamingSession) -> None:
        if session.playback_started_at is None and session.state == "active":
            session.abort()

    def _stop_viewing(self, session: StreamingSession) -> None:
        if session.playback_finished_at is not None:
            return
        if session.state == "active":
            session.abort()
        else:
            session.stop_playback()

    def _seek(self, session: StreamingSession, seconds: float) -> None:
        if session.state == "active" and session.playback_started_at is not None:
            session.skip_ahead(seconds)

    def _maybe_binge(self, session: StreamingSession, peer, episode: Episode) -> None:
        if session.playback_finished_at is None:
            return
        if not peer.online:
            return
        if episode.obj.cid in peer.sessions or peer.has_complete(episode.obj.cid):
            return
        self._start_viewing(peer, episode)
