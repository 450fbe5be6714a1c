"""The catch-up-TV catalog: series, episodes, and decayed popularity.

A VoD service's catalog has structure a download catalog lacks: objects
come in series, every episode of a series shares an audience, and an
episode's popularity decays with its age — most catch-up viewing happens
in the first days after broadcast (the BBC iPlayer measurements that
motivated this subsystem).  The model here:

* series draw audiences from a Zipf over rank (hit shows dominate);
* episode ``j`` of a series was released ``(last - j) * spacing`` days
  before the trace starts, and its weight is the series weight times
  ``2**(-age_days / half_life)``.

Episodes are ordinary p2p-enabled :class:`~repro.core.content.ContentObject`
instances, so the swarm, control plane, and analyses treat them exactly
like any other published file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.content import ContentObject, ContentProvider
from repro.vod.config import VodConfig

#: Days between consecutive episode releases within a series.
RELEASE_SPACING_DAYS = 1.0
#: Catch-up popularity half-life in days: an episode ``h`` days old is
#: watched ``2**(-h/half_life)`` as often as a brand-new one.
DECAY_HALF_LIFE_DAYS = 7.0
#: Zipf exponent over series rank (hit shows vs the long tail).
SERIES_ZIPF_EXPONENT = 0.9

__all__ = ["Episode", "Series", "VodCatalog", "build_vod_catalog",
           "VOD_CP_CODE"]

#: CP code of the synthetic VoD service; outside the 1..10 range the paper
#: customers use, so the download analyses never conflate the two.
VOD_CP_CODE = 8001

_DAY = 86400.0


@dataclass(frozen=True)
class Episode:
    """One episode: a content object plus its broadcast metadata."""

    obj: ContentObject
    series_name: str
    index: int
    #: Release time relative to the trace start, in days (<= 0: released
    #: before the trace window opens).
    release_day: float

    @property
    def age_days(self) -> float:
        """Days since broadcast at the trace start."""
        return -self.release_day


@dataclass(frozen=True)
class Series:
    """A show: its episodes in broadcast order and its audience weight."""

    name: str
    episodes: tuple[Episode, ...]
    audience_weight: float


@dataclass
class VodCatalog:
    """The whole catch-up offering, with popularity baked in."""

    provider: ContentProvider
    series: list[Series] = field(default_factory=list)

    def episodes(self) -> list[Episode]:
        """Every episode, series-major, broadcast order within a series."""
        return [ep for s in self.series for ep in s.episodes]

    def weights(self) -> list[float]:
        """Decayed popularity weight per episode, aligned with
        :meth:`episodes`."""
        out: list[float] = []
        for s in self.series:
            for ep in s.episodes:
                decay = 2.0 ** (-ep.age_days / DECAY_HALF_LIFE_DAYS)
                out.append(s.audience_weight * decay)
        return out

    def next_episode(self, episode: Episode) -> Episode | None:
        """The episode after ``episode`` in its series, if any."""
        for s in self.series:
            if s.name != episode.series_name:
                continue
            nxt = episode.index + 1
            if nxt < len(s.episodes):
                return s.episodes[nxt]
        return None


def build_vod_catalog(rng: random.Random, config: VodConfig) -> VodCatalog:
    """Build the deterministic series/episode catalog for one scenario.

    ``rng`` only jitters audience weights around the Zipf baseline; the
    structure (names, sizes, release schedule) is a pure function of the
    config, so the same seed always yields the same catalog.
    """
    provider = ContentProvider(
        cp_code=VOD_CP_CODE,
        name="CatchUpTV",
        upload_default_rate=0.94,  # ships like the paper's Customer D
        region_mix={"Europe": 0.55, "US East": 0.20, "US West": 0.15,
                    "Oceania": 0.10},
    )
    catalog = VodCatalog(provider=provider)
    size = config.episode_bytes
    last = config.episodes_per_series - 1
    for rank in range(config.n_series):
        name = f"series-{rank:02d}"
        base = 1.0 / (rank + 1) ** SERIES_ZIPF_EXPONENT
        weight = base * rng.uniform(0.8, 1.2)
        episodes = []
        for j in range(config.episodes_per_series):
            release_day = -(last - j) * RELEASE_SPACING_DAYS
            obj = ContentObject(
                f"vod/{name}/ep-{j:02d}.mp4", size, provider,
                p2p_enabled=True,
            )
            episodes.append(Episode(
                obj=obj, series_name=name, index=j, release_day=release_day,
            ))
        catalog.series.append(Series(
            name=name, episodes=tuple(episodes), audience_weight=weight,
        ))
    return catalog
