"""Predictive content placement — the feature NetSession deliberately lacks.

Paper §5.2: "NetSession does not use predictive caching — i.e., a peer only
downloads a file when it is requested by the local user."  That design keeps
peers unobtrusive (§3.9) but means every region cold-starts each popular
object through the infrastructure.

This extension implements the alternative so it can be measured: a
control-plane policy that watches demand, finds regions where a hot object
has too few registered copies, and asks idle, willing peers there to
prefetch it.  Prefetch downloads go through the normal Download Manager and
are flagged in the logs (``DownloadRecord.prefetch``), so the analyses can
separate user demand from placement traffic — exactly what the operator
would need to bill it differently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.bounds import bound, check_bounds

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.content import ContentObject
    from repro.core.system import NetSessionSystem

__all__ = ["PlacementConfig", "PredictivePlacer"]


@dataclass(frozen=True)
class PlacementConfig:
    """Knobs for the predictive-placement policy."""

    #: How often the policy re-evaluates demand, in seconds.
    interval: float = bound("(0, inf)", 3600.0)
    #: Desired online registered copies per (hot object, network region).
    copies_target: int = bound("[1, inf)", 8)
    #: Demand threshold: an object is "hot" once it has this many downloads
    #: in the trace so far.
    hot_threshold: int = bound("[0, inf)", 3)
    #: At most this many prefetches started per evaluation, fleet-wide
    #: (placement must not swamp user traffic).
    max_prefetches_per_tick: int = bound("[0, inf)", 10)
    #: Device class the operator steers prefetches toward (the always-on
    #: smartrouter fleet, typically).  None keeps the class-blind scan.
    prefer_class: str | None = None

    def __post_init__(self):
        check_bounds(self)


class PredictivePlacer:
    """The control-plane-side placement loop."""

    def __init__(
        self,
        system: "NetSessionSystem",
        objects: list["ContentObject"],
        config: PlacementConfig | None = None,
    ):
        self.system = system
        self.config = config if config is not None else PlacementConfig()
        self.objects = [o for o in objects if o.p2p_enabled]
        self._event = None

    def start(self) -> None:
        """Arm the periodic evaluation."""
        if self._event is None or not self._event.pending:
            self._event = self.system.sim.every(self.config.interval, self.tick)

    # --------------------------------------------------------------- policy

    def _should_run(self) -> bool:
        """Policy hook: may this evaluation act now?

        The base placer always runs; subclasses gate it (e.g. the VoD
        off-peak placer only pushes during the demand trough).
        """
        return True

    def tick(self) -> int:
        """One evaluation: find deficits, start prefetches.  Returns count."""
        if not self._should_run():
            return 0
        cfg = self.config
        demand = Counter(
            rec.cid for rec in self.system.logstore.downloads
            if rec.p2p_enabled and not rec.prefetch
        )
        hot = [obj for obj in self.objects
               if demand.get(obj.cid, 0) >= cfg.hot_threshold]
        if not hot:
            return 0
        hot.sort(key=lambda o: demand.get(o.cid, 0), reverse=True)

        started = 0
        budget = cfg.max_prefetches_per_tick
        for obj in hot:
            if started >= budget:
                break
            deficits = self._region_deficits(obj)
            for region, deficit in deficits:
                while deficit > 0 and started < budget:
                    peer = self._pick_prefetcher(obj, region)
                    if peer is None:
                        break
                    session = peer.start_download(obj)
                    session.is_prefetch = True
                    started += 1
                    deficit -= 1
        return started

    def _region_deficits(self, obj: "ContentObject") -> list[tuple[str, int]]:
        """(region, missing copies) for regions below the copies target."""
        cfg = self.config
        out = []
        for region, dns in self.system.control.dns_by_region.items():
            copies = sum(dn.copy_count(obj.cid) for dn in dns if dn.alive)
            if copies < cfg.copies_target:
                out.append((region, cfg.copies_target - copies))
        # Fill the emptiest regions first.
        out.sort(key=lambda item: -item[1])
        return out

    def _pick_prefetcher(self, obj: "ContentObject", region: str):
        """An idle, online, upload-enabled peer in ``region`` lacking ``obj``.

        With ``prefer_class`` set, a peer of that device class wins over
        the first eligible peer of any other class (operator-steered
        smartrouter placement — §5.2's missing feature).
        """
        prefer = self.config.prefer_class
        fallback = None
        for peer in self.system.peer_universe():
            if (
                peer.online
                and peer.uploads_enabled
                and peer.network_region == region
                and not peer.sessions            # idle
                and not peer.has_complete(obj.cid)
            ):
                if prefer is None or peer.device_class == prefer:
                    return peer
                if fallback is None:
                    fallback = peer
        return fallback
