"""Scripted demand: a hand-placed cast instead of a synthetic population.

The §3.8 fault drill, the blackout-recovery experiment and the §5.3
corporate-LAN push need a handful of peers placed exactly.  A
:class:`Script` describes such a cast declaratively, so the run is an
ordinary :class:`~repro.workload.scenario.ScenarioConfig` — fingerprinted,
cached, pooled and audited like every synthetic trace.

A script holds placements and absolute times only; staggers, random start
draws and offsets from a fault window are the config builder's arithmetic.
Every peer lives in :data:`COUNTRY`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.content import ContentObject, ContentProvider
from repro.core.peer import CacheEntry, PeerNode
from repro.net.flows import Resource
from repro.net.lan import LanSite
from repro.net.links import AccessLink, mbps

__all__ = ["COUNTRY", "Script", "ScriptCast", "ScriptObject", "Seeders",
           "Wave", "wave_records", "wave_stats"]

#: Country code every scripted peer is created in.
COUNTRY = "DE"


@dataclass(frozen=True)
class ScriptObject:
    """One published, p2p-enabled object; named by ``url``."""

    url: str
    size: int
    cp_code: int
    provider: str


@dataclass(frozen=True)
class Seeders:
    """``count`` peers that hold ``object`` from t=0 and share it."""

    count: int
    object: str
    #: Pinned ``(down, up)`` access link in Mbit/s; None keeps the sampled one.
    link: tuple[float, float] | None = None


@dataclass(frozen=True)
class Wave:
    """One peer per entry of ``starts`` (absolute sim seconds); each
    downloads the script's objects then, unless it is offline."""

    label: str
    starts: tuple[float, ...]
    link: tuple[float, float] | None = None
    #: Put the wave's peers on one :class:`~repro.net.lan.LanSite` named
    #: after ``label``.
    lan_site: bool = False


@dataclass(frozen=True)
class Script:
    """A scripted cast: objects, warm seeders, and download waves."""

    objects: tuple[ScriptObject, ...]
    seeders: tuple[Seeders, ...] = ()
    waves: tuple[Wave, ...] = ()


class ScriptCast:
    """The live cast of one scripted run, built in two steps around the
    fault injector: construction publishes the objects and boots the
    seeders, the faults arm, then :meth:`launch` boots the waves.  Per
    peer the order is create, pin, join site, boot."""

    def __init__(self, system, script: Script):
        self.system, self.script = system, script
        self.peers: list[PeerNode] = []
        self.waves: dict[str, list[str]] = {}
        self.sites: dict[str, list[str]] = {}
        self.objects: dict[str, ContentObject] = {}
        for spec in script.objects:
            obj = ContentObject(spec.url, spec.size,
                                ContentProvider(spec.cp_code, spec.provider),
                                p2p_enabled=True)
            system.publish(obj)
            self.objects[spec.url] = obj
        for group in script.seeders:
            cid = self.objects[group.object].cid
            for _ in range(group.count):
                peer = self._create(group.link)
                peer.cache[cid] = CacheEntry(cid, completed_at=0.0)
                peer.boot()

    def launch(self) -> None:
        """Boot every wave's peers and schedule their downloads."""
        for wave in self.script.waves:
            site = LanSite(wave.label) if wave.lan_site else None
            guids = self.waves[wave.label] = []
            if site is not None:
                self.sites[site.site_id] = guids
            for start in wave.starts:
                peer = self._create(wave.link)
                if site is not None:
                    peer.lan = site
                    site.add_member(peer.guid)
                peer.boot()
                guids.append(peer.guid)
                self.system.sim.schedule_at(start, lambda p=peer: self._start(p))

    def _start(self, peer: PeerNode) -> None:
        if peer.online:
            for obj in self.objects.values():
                peer.start_download(obj)

    def _create(self, link: tuple[float, float] | None) -> PeerNode:
        peer = self.system.create_peer(
            country=self.system.world.by_code[COUNTRY], uploads_enabled=True)
        if link is not None:  # replace the sampled link with a fixed one
            owner = f"pin-{peer.guid[:8]}"
            peer.link = AccessLink(
                downlink=Resource(f"{owner}/down", mbps(link[0])),
                uplink=Resource(f"{owner}/up", mbps(link[1])),
                tier="pinned",
            )
        self.peers.append(peer)
        return peer

    def record(self) -> dict:
        """The artifact's ``script`` record: wave and site membership, and
        each peer's breaker trips and last recovery time."""
        return {
            "waves": self.waves,
            "sites": self.sites,
            "breakers": {p.guid: (p.channel.times_degraded,
                                  p.channel.last_recovered_at)
                         for p in self.peers},
        }


def wave_records(record: dict, logstore) -> dict[str, list]:
    """Wave label -> its peers' download records, in peer order (a peer
    that skipped its start has none)."""
    by_guid: dict[str, list] = {}
    for r in logstore.downloads:
        by_guid.setdefault(r.guid, []).append(r)
    return {label: [r for g in guids for r in by_guid.get(g, ())]
            for label, guids in record["waves"].items()}


def wave_stats(records: list) -> dict[str, float]:
    """Outcome summary for one wave's download records."""
    n = len(records)
    completed = sum(1 for r in records if r.outcome == "completed")
    return {
        "downloads": n,
        "completed": completed,
        "completion_rate": completed / n if n else 0.0,
        "edge_only": sum(1 for r in records if r.peer_bytes == 0),
        "mean_peer_fraction":
            sum(r.peer_fraction for r in records) / n if n else 0.0,
    }
