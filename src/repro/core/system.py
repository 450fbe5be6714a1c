"""The NetSession system facade: everything wired together.

:class:`NetSessionSystem` assembles the substrate (simulator, flow network,
world, topology, geo database) and the system proper (edge network, control
plane, accounting) and exposes the operations the workload layer drives:
create peers, publish content, start downloads, advance time.

This is the public entry point of the core library::

    from repro.core import NetSessionSystem, ContentProvider, ContentObject

    system = NetSessionSystem(seed=7)
    provider = ContentProvider(cp_code=1001, name="GameCo", upload_default_rate=1.0)
    obj = ContentObject("game-installer.bin", 800_000_000, provider, p2p_enabled=True)
    system.publish(obj)

    peers = [system.create_peer() for _ in range(50)]
    for p in peers:
        p.boot()
    session = peers[0].start_download(obj)
    system.run(until=3600)
    print(session.state, session.peer_fraction)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.analysis.logstore import LogStore
from repro.core.accounting import AccountingService
from repro.core.config import SystemConfig
from repro.core.content import ContentObject, ContentProvider
from repro.core.control.channel import ControlChannelStats
from repro.core.control.plane import ControlPlane
from repro.core.edge import EdgeNetwork
from repro.core.peer import PeerNode
from repro.core.population_store import ColumnarPopulationStore
from repro.counters import Counters, counter, family
from repro.invariants import InvariantAuditor, InvariantStats, InvariantViolation
from repro.net.addressing import IPAllocator
from repro.net.flows import FlowNetwork, FlowNetworkStats
from repro.net.geo import Country, GeoDatabase, World, build_core_world
from repro.net.links import BroadbandModel
from repro.net.nat import NATModel
from repro.net.sim import Simulator
from repro.net.topology import ASTopology, build_topology

__all__ = ["DefenseStats", "NetSessionSystem", "SystemStats", "VodStats"]


@dataclass
class VodStats(Counters):
    """Streaming-side counters (zeros whenever no VoD workload ran).

    The streaming engine and the serving policies increment the system's
    instance.  Defined here rather than in :mod:`repro.vod` so the core
    system (and the pickled scenario artifacts that embed
    :class:`SystemStats`) never depend on the VoD package.
    """

    #: Viewing sessions whose playback clock was armed.
    streams_started: int = 0
    #: Sessions whose playback reached the end of the episode.
    playbacks_finished: int = 0
    #: Mid-stream stalls across all sessions.
    rebuffer_events: int = 0
    #: Total stall time across all sessions, seconds.
    rebuffer_seconds: float = counter(0.0, digits=1)
    #: Candidates a serving policy refused to return (e.g. cross-AS peers
    #: under ``isp_local``).
    policy_filtered: int = 0
    #: Prefetch downloads the off-peak placer started.
    prefetches_pushed: int = 0
    #: Pre-trace cache copies planted by ``popularity_seeding``.
    copies_seeded: int = 0


@dataclass
class DefenseStats(Counters):
    """Corruption/ban bookkeeping plus reputation-engine counters.

    The swarm layer increments the corruption and session-ban counters in
    every run (they are pure observations); the
    :class:`~repro.adversary.reputation.ReputationEngine` increments the
    quarantine/probation counters, which stay zero unless
    ``SystemConfig.defense.enabled`` constructed one.  Defined here, like
    :class:`VodStats`, so pickled artifacts embedding :class:`SystemStats`
    never depend on the adversary package.
    """

    #: Hash-verification failures across all sessions (pieces / bytes).
    corrupted_pieces: int = 0
    corrupted_bytes: int = 0
    #: Peer connections dropped for crossing ``conn_corruption_ban``.
    conn_corruption_drops: int = 0
    #: Session-level uploader bans (corruption aggregated across a
    #: session's connections to one uploader).
    uploader_bans: int = 0
    #: Connection attempts refused because the uploader was session-banned
    #: (each one is a re-selection the pre-fix engine would have allowed).
    ban_blocked_attempts: int = 0
    #: Serves that ended below the slow-rate floor.
    slow_serves: int = 0
    #: Reputation-engine counters (all zero with the defense disabled).
    quarantines: int = 0
    probations: int = 0
    reports_ingested: int = 0
    registrations_evicted: int = 0
    #: Quarantined peers that still appeared in a query answer — the
    #: quarantined-never-selected audit; must stay zero.
    quarantine_leaks: int = 0


@dataclass(frozen=True)
class SystemStats(Counters):
    """Point-in-time performance counters for a running system.

    Combines the simulator's event-loop counters with a snapshot of every
    stats family (nested, flattened under a key prefix) and basic
    population gauges.  Cheap to take — every field is O(1) to read —
    so experiment runners can snapshot it after each scenario.
    """

    #: Simulated time of the snapshot, seconds.
    now: float = counter(0.0, digits=1, gauge=True)
    #: Event-loop work: callbacks fired, heap pushes, stale entries popped.
    events_processed: int = 0
    sim_heap_pushes: int = 0
    sim_stale_pops: int = 0
    #: Not-yet-fired, not-cancelled events still queued.
    pending_events: int = 0
    #: Population gauges.
    peers: int = 0
    peers_online: int = 0
    active_flows: int = 0
    flows_completed: int = 0
    flows_aborted: int = 0
    #: Allocation-engine counters (see :class:`FlowNetworkStats`).
    flows: FlowNetworkStats = family(FlowNetworkStats, "flow_")
    #: Control-channel robustness counters (see :class:`ControlChannelStats`).
    channel: ControlChannelStats = family(ControlChannelStats, "ctrl_")
    #: Invariant-audit counters (see :class:`InvariantStats`).
    invariants: InvariantStats = family(InvariantStats, "inv_")
    #: Streaming/serving-policy counters (see :class:`VodStats`); all zero
    #: unless the scenario attached a VoD workload.
    vod: VodStats = family(VodStats, "vod_")
    #: Corruption/ban and reputation counters (see :class:`DefenseStats`).
    defense: DefenseStats = family(DefenseStats, "rep_")


class NetSessionSystem:
    """A complete, runnable NetSession deployment over a synthetic Internet."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        *,
        seed: int = 0,
        world: Optional[World] = None,
        topology: Optional[ASTopology] = None,
        locality_aware_selection: bool = True,
    ):
        self.config = config if config is not None else SystemConfig()
        self.rng = random.Random(seed)
        self.sim = Simulator()
        self.flows = FlowNetwork(self.sim)
        #: Fleet-wide control-channel robustness counters; every peer's
        #: :class:`~repro.core.control.channel.ControlChannel` feeds it.
        self.channel_stats = ControlChannelStats()

        self.world = world if world is not None else build_core_world()
        self.topology = (
            topology
            if topology is not None
            else build_topology(self.world, random.Random(seed ^ 0x70_70))
        )
        self.geodb = GeoDatabase()
        self.allocator = IPAllocator(self.geodb, random.Random(seed ^ 0xA11))
        self.broadband = BroadbandModel(random.Random(seed ^ 0xB0B))
        self.nat_model = NATModel(random.Random(seed ^ 0x4A7))

        self.logstore = LogStore()
        regions = self.topology.network_regions()
        self.edge = EdgeNetwork(
            regions,
            random.Random(seed ^ 0xED6E),
            egress_mbps=self.config.edge_egress_mbps,
        )
        self.accounting = AccountingService(self.edge)
        self.control = ControlPlane(
            self.sim, self.config, self.edge, self.logstore, self.accounting,
            regions, random.Random(seed ^ 0xC7),
            locality_aware=locality_aware_selection,
        )

        self.peer_by_guid: dict[str, PeerNode] = {}
        #: Every peer is a row of this store, in creation order: dormant
        #: rows from population synthesis, live rows from
        #: :meth:`create_peer` (see :mod:`repro.core.population_store`).
        self.population_store = ColumnarPopulationStore(self)
        self.providers: dict[int, ContentProvider] = {}
        #: Streaming/serving-policy counters (stay all-zero unless a VoD
        #: workload is attached; see :mod:`repro.vod`).
        self.vod = VodStats()
        #: Corruption/ban and reputation counters (always live — pure
        #: bookkeeping).
        self.defense = DefenseStats()
        #: Ground truth for drills/experiments: guid -> profile for every
        #: peer an adversary assignment converted.  Empty in honest runs.
        self.adversary_truth: dict[str, str] = {}
        #: Device-tier mix (:class:`repro.workload.devices.DeviceMixConfig`)
        #: installed by population synthesis; None for homogeneous desktops.
        self.device_mix = None
        # With the defense on, its engine is the plane's reputation stage.
        if self.config.defense.enabled:
            from repro.adversary.reputation import ReputationEngine
            engine = ReputationEngine(seed)
            engine.on_quarantine = self._evict_quarantined
            engine.stats = self.defense
            self.control.install_stage(engine)

        #: The sanitizer layer (see :mod:`repro.invariants`).  Constructed
        #: last so its checkers can observe every subsystem above.
        self.auditor = InvariantAuditor(self, self.config.invariants)
        self.auditor.install()

    # ----------------------------------------------------------------- content

    def register_provider(self, provider: ContentProvider) -> None:
        """Onboard a content provider (customer account)."""
        self.providers[provider.cp_code] = provider

    def publish(self, obj: ContentObject) -> None:
        """Publish an object to the edge network (provider upload)."""
        if obj.provider.cp_code not in self.providers:
            self.register_provider(obj.provider)
        self.edge.publish(obj)

    # ------------------------------------------------------------------ peers

    def create_peer(
        self,
        *,
        country: Optional[Country] = None,
        uploads_enabled: Optional[bool] = None,
        installed_from: Optional[ContentProvider] = None,
        guid: str | None = None,
    ) -> PeerNode:
        """Create a peer: sample location, AS, access link, and NAT.

        ``uploads_enabled`` defaults to a draw from the bundling provider's
        binary mix (Table 4); with neither given, it defaults to enabled.
        The peer starts offline — call :meth:`PeerNode.boot`.  It is the
        population store's next row, live from the start, and its access
        link is named after that row (``peerN``).
        """
        if country is None:
            country = self.world.sample_country(self.rng)
        city = self.world.sample_city(country, self.rng)
        asys = self.topology.sample_as(country.code, self.rng)
        link = self.broadband.sample(
            f"peer{len(self.population_store)}",
            speed_multiplier=country.speed_multiplier,
        )
        nat = self.nat_model.sample()
        if uploads_enabled is None:
            if installed_from is not None:
                uploads_enabled = self.rng.random() < installed_from.upload_default_rate
            else:
                uploads_enabled = True
        peer = PeerNode(
            self, country, city, asys, link, nat,
            uploads_enabled=uploads_enabled,
            installed_from_cp=installed_from.cp_code if installed_from else 0,
            guid=guid,
        )
        self.population_store.append(peer)
        return peer

    def _evict_quarantined(self, guid: str) -> int:
        """Reputation-engine hook: drop a quarantined peer's registrations."""
        evicted = 0
        for dn in self.control.all_dns:
            evicted += dn.unregister_peer(guid)
        return evicted

    # -------------------------------------------------------------- operation

    def run(self, until: Optional[float] = None) -> None:
        """Advance simulated time (see :meth:`repro.net.sim.Simulator.run`)."""
        self.sim.run(until=until)

    def finalize_open_downloads(self) -> int:
        """End-of-trace cleanup: abort paused/active sessions still open.

        Mirrors the trace semantics: a download paused and never resumed by
        the end of the measurement month counts as aborted (§5.2).  Returns
        the number of sessions finalized.
        """
        count = 0
        for peer in self.iter_peer_nodes():
            for session in list(peer.sessions.values()):
                if session.state in ("active", "paused"):
                    session.abort()
                    count += 1
        return count

    def audit(self, *, final: bool = True) -> list[InvariantViolation]:
        """Run the invariant checkers now and return the violation report.

        ``final=True`` (the default) includes the end-of-run reconciliation
        checkers; scenario and drill runners call this after the trace ends.
        Settles any pending flow mutations first so the feasibility checker
        sees a consistent allocation.  In strict mode an error-severity
        violation raises :class:`~repro.invariants.InvariantViolationError`.
        """
        self.flows.flush()
        return self.auditor.audit(final=final)

    # ------------------------------------------------------------- inspection

    def iter_peer_nodes(self) -> list[PeerNode]:
        """Live :class:`PeerNode` objects, in creation order.

        Order-sensitive sweeps (end-of-trace session finalization,
        stranded-peer reconnection) rely on that order for byte parity.
        """
        return self.population_store.materialized_nodes()

    def peer_universe(self):
        """Every peer — dormant rows included — in creation order.

        Fault selection and population-wide sweeps draw from this sequence
        of lazy handles, so scanning the universe materializes no one.
        """
        return list(self.population_store)

    def peer_count_total(self) -> int:
        """Number of installations, dormant rows included."""
        return len(self.population_store)

    def online_peer_count(self) -> int:
        """Peers currently online."""
        return sum(1 for p in self.iter_peer_nodes() if p.online)

    def stats(self) -> SystemStats:
        """Snapshot the simulator and allocation-engine counters."""
        return SystemStats(
            now=self.sim.now,
            events_processed=self.sim.events_processed,
            sim_heap_pushes=self.sim.heap_pushes,
            sim_stale_pops=self.sim.stale_pops,
            pending_events=self.sim.pending_count(),
            peers=self.peer_count_total(),
            peers_online=self.online_peer_count(),
            active_flows=len(self.flows.active_flows),
            flows_completed=self.flows.completed_count,
            flows_aborted=self.flows.aborted_count,
            flows=self.flows.stats.snapshot(),
            channel=self.channel_stats.snapshot(),
            invariants=self.auditor.stats.snapshot(),
            vod=self.vod.snapshot(),
            defense=self.defense.snapshot(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<NetSessionSystem peers={self.peer_count_total()} "
            f"objects={len(self.edge.catalog)} t={self.sim.now:.0f}s>"
        )
