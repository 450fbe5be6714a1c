"""Request arrivals: who downloads what, where, and when.

Calibration targets:

* **Figure 3(b)** — Zipf object popularity (inherited from the catalog
  weights);
* **Figure 3(c)** — diurnal bytes-per-hour pattern (arrivals are thinned by
  the local-time activity curve of the destination region);
* **Table 2** — each provider's regional download mix steers which region a
  request lands in.

Arrivals are a non-homogeneous Poisson process realised by inversion over a
piecewise-constant rate.  Each arrival picks a provider (by volume share),
an object (catalog popularity), a destination region (the provider's
Table 2 mix), and finally an online peer in that region — booting an offline
one if necessary, which is realistic: people turn the machine on to start a
download.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from repro.bounds import bound, check_bounds
from repro.core.content import ContentObject
from repro.core.peer import PeerNode
from repro.core.system import NetSessionSystem
from repro.workload.catalog import Catalog
from repro.workload.population import DAY, Population, diurnal_rate

__all__ = ["DemandConfig", "DemandGenerator"]

#: Default download-volume share per paper customer A..J (the paper does not
#: publish absolute volumes; the shares below give every customer enough
#: traffic for Table 2 statistics while keeping a realistic skew).
DEFAULT_PROVIDER_SHARES = (0.20, 0.14, 0.12, 0.11, 0.10, 0.08, 0.08, 0.07, 0.05, 0.05)

#: Probability that a download of provider X's content is performed by a
#: peer whose NetSession install came bundled with X's software.  Users
#: downloading a game run that game's client — this is what makes the
#: holders of a provider's content share that provider's Table 4 upload
#: default.
INSTALL_AFFINITY = 0.8

#: Representative timezone offsets (seconds) per region, used to phase the
#: diurnal curve of arrivals targeted at that region.
REGION_TZ = {
    "US East": -5 * 3600.0, "US West": -8 * 3600.0,
    "Americas Other": -4 * 3600.0, "Europe": 1 * 3600.0,
    "India": 5.5 * 3600.0, "China": 8 * 3600.0,
    "Asia Other": 8 * 3600.0, "Africa": 2 * 3600.0,
    "Oceania": 10 * 3600.0,
}


@dataclass(frozen=True)
class DemandConfig:
    """Knobs for the arrival process."""

    total_downloads: int = bound("[1, inf)", 5000)
    duration_days: float = bound("(0, inf)", 7.0)
    provider_shares: tuple[float, ...] = DEFAULT_PROVIDER_SHARES

    def __post_init__(self):
        check_bounds(self)
        if not all(0 <= w < float("inf") for w in self.provider_shares) \
                or not sum(self.provider_shares) > 0:
            raise ValueError("provider_shares must be finite and >= 0, with a "
                             f"positive sum, got {self.provider_shares!r}")


class DemandGenerator:
    """Schedules download requests onto a running system."""

    def __init__(
        self,
        system: NetSessionSystem,
        population: Population,
        catalog: Catalog,
        config: DemandConfig | None = None,
    ):
        self.system = system
        self.population = population
        self.catalog = catalog
        self.config = config if config is not None else DemandConfig()
        self.rng = random.Random(system.rng.getrandbits(64))
        # Pools hold row indexes into ``population.peers`` (creation
        # order), so a dormant install costs nothing until it is picked.
        self._peers_by_region: dict[str, list[int]] = {}
        self._peers_by_region_cp: dict[tuple[str, int], list[int]] = {}
        for row, key in enumerate(zip(population.column("geo_region"),
                                      population.column("installed_from_cp"))):
            self._peers_by_region.setdefault(key[0], []).append(row)
            self._peers_by_region_cp.setdefault(key, []).append(row)
        #: Sessions created by this generator, for behaviour attachment.
        self.on_session_started = None  # callback(session) or None

    # ------------------------------------------------------------ scheduling

    def schedule_all(self) -> int:
        """Pre-schedule every arrival for the configured duration.

        Returns the number of arrivals scheduled.
        """
        cfg = self.config
        horizon = cfg.duration_days * DAY
        providers = self.catalog.providers
        shares = list(cfg.provider_shares[: len(providers)])
        if len(shares) < len(providers):
            shares += [shares[-1]] * (len(providers) - len(shares))

        cdfs: dict[float, list[float]] = {}
        for _ in range(cfg.total_downloads):
            provider = self.rng.choices(providers, weights=shares, k=1)[0]
            obj = self._sample_object(provider.cp_code)
            region = self._sample_region(provider.region_mix)
            t = self._sample_arrival_time(region, horizon, cdfs)
            self.system.sim.schedule_at(
                t, lambda o=obj, r=region: self._on_arrival(o, r)
            )
        return cfg.total_downloads

    def _sample_object(self, cp_code: int) -> ContentObject:
        objects = self.catalog.by_provider[cp_code]
        weights = self.catalog.provider_weights(cp_code)
        return self.rng.choices(objects, weights=weights, k=1)[0]

    def _sample_region(self, mix: dict[str, float]) -> str:
        regions = list(mix.keys())
        weights = list(mix.values())
        if not regions:
            return "Europe"
        return self.rng.choices(regions, weights=weights, k=1)[0]

    def _sample_arrival_time(self, region: str, horizon: float,
                             cdfs: dict[float, list[float]] | None = None) -> float:
        """Inverse-CDF sample from the diurnal rate curve for a region;
        ``cdfs`` keeps this ``horizon``'s curves by timezone offset."""
        tz = REGION_TZ.get(region, 0.0)
        cdfs = {} if cdfs is None else cdfs
        if tz not in cdfs:
            # Piecewise-constant rate at hourly resolution over the horizon.
            cdfs[tz] = _diurnal_cdf(horizon, tz)
        cdf = cdfs[tz]
        u = self.rng.random() * cdf[-1]
        idx = bisect.bisect_left(cdf, u)
        lo = idx * 3600.0
        return min(horizon - 1.0, lo + self.rng.uniform(0.0, 3600.0))

    # --------------------------------------------------------------- arrivals

    def _on_arrival(self, obj: ContentObject, region: str) -> None:
        peer = self._pick_peer(region, obj)
        if peer is None:
            return
        if not peer.online:
            peer.boot()
        if obj.cid in peer.sessions or peer.has_complete(obj.cid):
            return
        session = peer.start_download(obj)
        if self.on_session_started is not None:
            self.on_session_started(session)

    def _pick_peer(self, region: str, obj: ContentObject) -> PeerNode | None:
        peers = self.population.peers
        pools: list = []
        if self.rng.random() < INSTALL_AFFINITY:
            affine = self._peers_by_region_cp.get((region, obj.provider.cp_code))
            if affine:
                pools.append(affine)
        regional = self._peers_by_region.get(region)
        if regional:
            pools.append(regional)
        # Tiny scenarios may lack peers in the target region entirely.
        pools.append(range(len(peers)))

        def eligible(peer: PeerNode, need_online: bool) -> bool:
            if obj.cid in peer.sessions or peer.has_complete(obj.cid):
                return False
            return peer.online or not need_online

        # Prefer an online, idle peer in the most specific pool; widen the
        # pool (existing holders don't re-download, so saturated pools must
        # not starve demand), then drop the online requirement (the user
        # turns the machine on to start the download).
        for need_online in (True, False):
            for pool in pools:
                if not pool:
                    continue
                for _ in range(12):
                    peer = peers[self.rng.choice(pool)]
                    if eligible(peer, need_online):
                        return peer
        return None


def _diurnal_cdf(horizon: float, tz: float) -> list[float]:
    """Cumulative hourly mass of the diurnal curve over [0, horizon)."""
    hours = max(1, int(horizon // 3600))
    cdf: list[float] = []
    total = 0.0
    for h in range(hours):
        total += diurnal_rate(h * 3600.0, tz)
        cdf.append(total)
    return cdf
