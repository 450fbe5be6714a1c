"""The pluggable serving-policy engine for VoD delivery.

A *serving policy* decides which peers may serve a streaming object and
when the control plane may push copies around — the levers an operator
has for trading CDN offload against QoE and inter-ISP transit (the axis
the BBC iPlayer and *Pushing BitTorrent Locality to the Limit* studies
map out).  Policies hook into the existing machinery through two narrow
protocols instead of hard-coded branches:

* **selection** — :class:`~repro.core.control.connection_node.ConnectionNode`
  consults ``serving_policy.admits`` (a candidate filter passed through to
  :func:`repro.core.selection.select_peers`) and
  ``serving_policy.allow_widening`` (veto on cross-region search);
* **placement** — a policy may contribute a
  :class:`~repro.core.placement.PredictivePlacer` subclass whose
  ``_should_run`` hook gates *when* copies move (e.g. only in the demand
  trough).

Every policy is scoped to the VoD cids it is given: queries for ordinary
download objects pass through untouched, so a mixed scenario keeps its
download behaviour (and its RNG draws) bit-identical.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.placement import PlacementConfig, PredictivePlacer
from repro.vod.config import POLICY_NAMES, VodConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.control.database_node import PeerRegistration
    from repro.core.selection import QueryContext
    from repro.core.system import NetSessionSystem
    from repro.vod.catalog import VodCatalog

__all__ = [
    "ServingPolicy", "UnrestrictedPolicy", "IspLocalOnlyPolicy",
    "OffPeakPrefetchPolicy", "PopularitySeedingPolicy", "OffPeakPlacer",
    "make_policy",
]

_HOUR = 3600.0
_DAY = 86400.0

#: Off-peak window (UTC hours) in which ``offpeak_prefetch`` may push.
OFFPEAK_WINDOW = (2.0, 7.0)
#: Registered-copies target per (episode, region) for the prefetch placer.
PREFETCH_COPIES_TARGET = 6


class ServingPolicy:
    """Base policy: serve from anyone, never push copies (the baseline)."""

    name = "unrestricted"

    def __init__(self, vod_cids: Iterable[str], counters=None):
        self.vod_cids = frozenset(vod_cids)
        #: The system's live :class:`repro.core.system.VodStats` (or None
        #: outside a system context): policies account their interventions
        #: there.
        self.counters = counters

    # ------------------------------------------------------- selection hooks

    def admits(self, query: "QueryContext", reg: "PeerRegistration") -> bool:
        """May ``reg`` be returned to ``query``?  Non-VoD cids always pass."""
        return True

    def allow_widening(self, query: "QueryContext", cid: str) -> bool:
        """May the CN widen the search to remote regions for ``cid``?"""
        return True

    # ------------------------------------------------------- placement hooks

    def build_placer(
        self, system: "NetSessionSystem", catalog: "VodCatalog",
        config: VodConfig,
    ) -> Optional[PredictivePlacer]:
        """A placer to arm for this policy, or None."""
        return None

    def pre_seed(
        self, system: "NetSessionSystem", population, catalog: "VodCatalog",
        config: VodConfig, rng: random.Random,
    ) -> int:
        """Pre-trace cache seeding; returns copies seeded (0 by default)."""
        return 0

    # -------------------------------------------------------------- plumbing

    def install(self, system: "NetSessionSystem") -> None:
        """Point every CN's ``serving_policy`` at this policy."""
        for cn in system.control.all_cns:
            cn.serving_policy = self

    def _count_filtered(self) -> None:
        if self.counters is not None:
            self.counters.policy_filtered += 1


class UnrestrictedPolicy(ServingPolicy):
    """Explicit alias of the base: any holder may serve any viewer."""

    name = "unrestricted"


class IspLocalOnlyPolicy(ServingPolicy):
    """Serve VoD only from peers in the viewer's own AS (ISP-local).

    The most ISP-friendly setting — zero inter-AS transit from VoD — and
    the most fragile: a viewer in a tiny ISP finds no local holders, the
    widening veto keeps remote regions closed, and the edge backstop
    carries the stream (the degrade-to-edge regime *Pushing BitTorrent
    Locality to the Limit* warns about; the tests pin that playback never
    stalls there).
    """

    name = "isp_local"

    def admits(self, query: "QueryContext", reg: "PeerRegistration") -> bool:
        if reg.cid not in self.vod_cids:
            return True
        if reg.asn == query.asn:
            return True
        if query.lan_id and reg.lan_id == query.lan_id:
            return True
        self._count_filtered()
        return False

    def allow_widening(self, query: "QueryContext", cid: str) -> bool:
        # Remote regions cannot contain same-AS peers the local DNs missed
        # often enough to be worth the transit risk: keep the search local.
        return cid not in self.vod_cids


class OffPeakPlacer(PredictivePlacer):
    """A predictive placer that only acts in the configured demand trough."""

    def __init__(
        self,
        system: "NetSessionSystem",
        objects,
        config: PlacementConfig,
        *,
        window: tuple[float, float],
        counters=None,
    ):
        super().__init__(system, objects, config)
        self.window = window
        self.counters = counters

    def _should_run(self) -> bool:
        start, end = self.window
        hour = (self.system.sim.now % _DAY) / _HOUR
        if start <= end:
            inside = start <= hour < end
        else:  # window wraps midnight
            inside = hour >= start or hour < end
        return inside

    def tick(self) -> int:
        started = super().tick()
        if started and self.counters is not None:
            self.counters.prefetches_pushed += started
        return started


class OffPeakPrefetchPolicy(ServingPolicy):
    """Unrestricted serving plus off-peak pushes of popular episodes.

    During the overnight trough the control plane asks idle, upload-enabled
    peers in under-provisioned regions to prefetch hot episodes, so the
    prime-time rush finds warm local swarms.  Pushes ride the ordinary
    Download Manager and are flagged ``prefetch`` in the logs.
    """

    name = "offpeak_prefetch"

    def build_placer(
        self, system: "NetSessionSystem", catalog: "VodCatalog",
        config: VodConfig,
    ) -> Optional[PredictivePlacer]:
        episodes = [ep.obj for ep in catalog.episodes()]
        placement = PlacementConfig(
            interval=1800.0,
            copies_target=PREFETCH_COPIES_TARGET,
            hot_threshold=2,
            max_prefetches_per_tick=config.max_prefetches_per_tick,
        )
        return OffPeakPlacer(
            system, episodes, placement,
            window=OFFPEAK_WINDOW,
            counters=self.counters,
        )


class PopularitySeedingPolicy(ServingPolicy):
    """Unrestricted serving plus popularity-proportional pre-seeding.

    Models an operator that ships the hottest catch-up episodes to caches
    ahead of demand (a static cousin of off-peak push): before the trace
    starts, copies are planted in upload-enabled peers' caches, apportioned
    by each episode's decayed popularity.  Registration with the control
    plane happens naturally at first login, same as warm download caches.
    """

    name = "popularity_seeding"

    def pre_seed(
        self, system: "NetSessionSystem", population, catalog: "VodCatalog",
        config: VodConfig, rng: random.Random,
    ) -> int:
        from repro.core.peer import CacheEntry

        episodes = catalog.episodes()
        if not episodes or config.seed_copies_per_episode <= 0:
            return 0
        weights = catalog.weights()
        hosts = [p for p in population.iter_peers() if p.uploads_enabled]
        if not hosts:
            return 0
        total = int(round(config.seed_copies_per_episode * len(episodes)))
        retention = system.config.client.cache_retention
        seeded = 0
        for _ in range(total):
            episode = rng.choices(episodes, weights=weights, k=1)[0]
            host = rng.choice(hosts)
            if host.has_complete(episode.obj.cid) or host.cache_full():
                continue
            host.cache[episode.obj.cid] = CacheEntry(
                cid=episode.obj.cid, completed_at=0.0)
            system.sim.schedule(
                rng.uniform(0.5, 1.0) * retention,
                lambda p=host, c=episode.obj.cid: p._evict(c),
            )
            seeded += 1
        if self.counters is not None:
            self.counters.copies_seeded += seeded
        return seeded


_POLICY_CLASSES = {
    "unrestricted": UnrestrictedPolicy,
    "isp_local": IspLocalOnlyPolicy,
    "offpeak_prefetch": OffPeakPrefetchPolicy,
    "popularity_seeding": PopularitySeedingPolicy,
}
assert set(_POLICY_CLASSES) == set(POLICY_NAMES)


def make_policy(name: str, vod_cids: Iterable[str], counters=None) -> ServingPolicy:
    """Build the named policy, or raise ``ValueError`` for an unknown name."""
    try:
        cls = _POLICY_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown serving policy {name!r}; expected one of {POLICY_NAMES}"
        ) from None
    return cls(vod_cids, counters=counters)
