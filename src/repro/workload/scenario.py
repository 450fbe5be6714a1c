"""Scenario driver: one call builds and runs a complete synthetic trace.

This is the reproduction's equivalent of "operate NetSession for a month
and collect the logs" (paper §4.1).  A :class:`ScenarioConfig` fixes every
knob (population size, catalog, demand volume, behaviour, mobility,
cloning, seed); :func:`run_scenario` assembles the system, schedules the
workload, runs the simulator, finalizes dangling downloads, and returns a
:class:`ScenarioResult` whose log store and geo database are what the
analysis layer consumes.

Scale is a parameter: benchmarks use small populations (seconds of wall
time), examples use medium ones.  The *shapes* the paper reports are
scale-stable; EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.adversary.profiles import AdversaryConfig, assign_adversaries
from repro.analysis.logstore import LogStore
from repro.bounds import bound, check_bounds
from repro.core.config import SystemConfig
from repro.core.peer import CacheEntry
from repro.core.placement import PlacementConfig
from repro.core.system import NetSessionSystem
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.net.geo import GeoDatabase, World, build_core_world
from repro.net.topology import ASTopology, build_topology
from repro.workload.behavior import BehaviorConfig, UserBehavior
from repro.workload.catalog import Catalog, CatalogConfig, build_catalog
from repro.workload.cloning import CloningConfig, CloningModel
from repro.workload.demand import DemandConfig, DemandGenerator
from repro.vod.config import VodConfig
from repro.workload.mobility import MobilityConfig, MobilityModel
from repro.workload.population import DAY, Population, PopulationConfig, build_population
from repro.workload.script import Script, ScriptCast
from repro.workload.sharding import ShardingConfig

__all__ = ["ScenarioConfig", "ScenarioResult", "run_scenario"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one synthetic trace."""

    seed: int = 42
    duration_days: float = bound("(0, inf)", 7.0)
    #: Extra synthetic territories appended to the core world (Table 1's
    #: "239 countries and territories" needs a padded world; most scenarios
    #: don't).
    extra_territories: int = bound("[0, inf)", 0)
    system: SystemConfig = field(default_factory=SystemConfig)
    population: PopulationConfig = field(default_factory=PopulationConfig)
    catalog: CatalogConfig = field(default_factory=CatalogConfig)
    demand: DemandConfig | None = None
    behavior: BehaviorConfig = field(default_factory=BehaviorConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    cloning: CloningConfig = field(default_factory=CloningConfig)
    #: Ablation switch: random instead of locality-aware peer selection.
    locality_aware_selection: bool = True
    #: Extension (paper's explicit non-feature, §5.2): run the predictive
    #: placement policy that prefetches hot objects into thin regions, with
    #: these knobs (interval, copies target, device-class steering).  None
    #: (the default) runs no placer.
    placement: PlacementConfig | None = None
    #: Fault schedule injected into the run (see :mod:`repro.faults`); the
    #: empty default keeps every existing scenario fault-free.  Faults draw
    #: from their own seeded RNGs, so adding one does not perturb the
    #: workload's random streams.
    faults: tuple[FaultSpec, ...] = ()
    #: VoD streaming workload and serving policy (see :mod:`repro.vod`).
    #: None (the default) attaches nothing: no VoD catalog is published, no
    #: policy installed, and no RNG stream touched, so every pre-existing
    #: scenario runs bit-identically.
    vod: VodConfig | None = None
    #: Adversarial slice of the population (see :mod:`repro.adversary`).
    #: None (the default) converts nobody and draws nothing: the honest
    #: population is byte-identical whether or not this leaf exists.
    adversary: AdversaryConfig | None = None
    #: Region-sharded execution (see :mod:`repro.workload.sharding`).  None
    #: (the default) runs the classic single trace; a config factors the
    #: scenario into per-region sub-scenarios fanned across the runner's
    #: process pool and merged — a *different* (region-factored) trace from
    #: the unsharded one, but byte-invariant to the shard width and store.
    #: Sharded runs dispatch through
    #: :func:`repro.runner.run_scenario_artifact`, not :func:`run_scenario`.
    sharding: ShardingConfig | None = None
    #: Warm start: expected number of pre-trace cached copies per peer.  The
    #: paper's October 2012 window opens on a five-year-old deployment whose
    #: peers already hold popular content; a cold start would understate
    #: peer efficiency for the whole first half of the trace.  Copies are
    #: assigned popularity-proportionally across p2p-enabled objects.
    warm_copies_per_peer: float = bound("[0, inf)", 4.0)
    #: Scripted demand (see :mod:`repro.workload.script`).  None (the
    #: default) builds the synthetic trace; a script replaces the catalog,
    #: population, warm caches, behaviour, mobility, cloning and demand
    #: with its hand-placed cast.  The blocks that need a population
    #: (sharding, vod, adversary, placement) are rejected alongside it.
    script: Script | None = None

    def __post_init__(self):
        check_bounds(self)
        if self.script is None:
            return
        clash = [name for name in ("sharding", "vod", "adversary", "placement")
                 if getattr(self, name) is not None]
        if clash:
            raise ValueError(f"a scripted scenario has no population for "
                             f"{', '.join(clash)}")

    def resolved_demand(self) -> DemandConfig:
        """The demand config, defaulting the duration to the scenario's."""
        if self.demand is not None:
            return self.demand
        return DemandConfig(duration_days=self.duration_days)


@dataclass
class ScenarioResult:
    """A finished run: the system and everything the analyses need."""

    config: ScenarioConfig
    system: NetSessionSystem
    #: The synthetic cast; None for a scripted run.
    population: Population | None
    catalog: Catalog | None
    behavior: UserBehavior | None
    mobility_census: dict[str, int]
    cloning_census: dict[str, int]
    finalized_downloads: int
    #: The fault injector, when the config scheduled faults (else None);
    #: exposes the injection timeline and the §3.8 recovery gauges.
    injector: FaultInjector | None = None
    #: The VoD attachment, when the config enabled streaming (else None);
    #: see :class:`repro.vod.engine.VodRuntime`.
    vod_runtime: object | None = None
    #: The scripted cast, when the config carried a script (else None).
    script: ScriptCast | None = None

    @property
    def logstore(self) -> LogStore:
        """The trace (downloads / logins / registrations)."""
        return self.system.logstore

    @property
    def geodb(self) -> GeoDatabase:
        """The EdgeScape-equivalent geolocation data set."""
        return self.system.geodb

    @property
    def topology(self) -> ASTopology:
        """The synthetic AS-level topology (the CAIDA substitute)."""
        return self.system.topology

    @property
    def world(self) -> World:
        """The synthetic world geography."""
        return self.system.world


def seed_warm_caches(
    system: NetSessionSystem,
    population: Population,
    catalog: Catalog,
    copies_per_peer: float,
    rng: random.Random,
    duration_days: float | None = None,
) -> int:
    """Pre-populate caches with popularity-weighted copies of p2p objects.

    Models the installed base at the start of the trace window: peers who
    downloaded popular content *before* the trace began and still cache it.
    Registration with the control plane happens naturally at each peer's
    first login.  Returns the number of copies seeded.  A retention timer
    that cannot fire within ``duration_days`` is drawn but not pushed.
    """
    p2p_objects = catalog.p2p_objects()
    if not p2p_objects or copies_per_peer <= 0:
        return 0
    weights = [
        catalog.weights[catalog.objects.index(obj)] for obj in p2p_objects
    ]
    by_cp: dict[int, list] = {}
    for peer in population.iter_peers():
        by_cp.setdefault(peer.installed_from_cp, []).append(peer)
    total = int(round(copies_per_peer * population.peer_count()))
    #: Leave headroom in every provider pool so in-trace demand still finds
    #: peers who don't already hold the flagship objects.
    saturation_cap = 0.6
    seeded_per_obj: dict[str, int] = {}
    seeded = 0
    retention = system.config.client.cache_retention
    until = math.inf if duration_days is None else duration_days * DAY
    for _ in range(total):
        obj = rng.choices(p2p_objects, weights=weights, k=1)[0]
        # Holders of a provider's content are mostly that provider's own
        # installs (see repro.workload.demand.INSTALL_AFFINITY).
        pool = by_cp.get(obj.provider.cp_code)
        if pool and seeded_per_obj.get(obj.cid, 0) >= saturation_cap * len(pool):
            pool = population.peers
        elif not pool or rng.random() >= 0.8:
            pool = population.peers
        peer = rng.choice(pool)
        if peer.has_complete(obj.cid) or peer.cache_full():
            continue  # already held, or a storage-poor tier at its budget
        seeded_per_obj[obj.cid] = seeded_per_obj.get(obj.cid, 0) + 1
        peer.cache[obj.cid] = CacheEntry(cid=obj.cid, completed_at=0.0)
        evict_in = rng.uniform(0.3, 1.0) * retention
        if system.sim.now + evict_in <= until:
            system.sim.schedule(evict_in, lambda p=peer, c=obj.cid: p._evict(c))
        seeded += 1
    return seeded


def run_scenario(
    config: ScenarioConfig | None = None,
    *,
    world: World | None = None,
    topology: ASTopology | None = None,
) -> ScenarioResult:
    """Build, run, and finalize one trace: synthetic, or the config's
    scripted cast (see :mod:`repro.workload.script`).

    ``world``/``topology`` override the internally built ones; the region
    sharder passes a region-filtered world over the full parent topology so
    shard peers keep globally consistent AS numbers and IP prefixes.
    """
    cfg = config if config is not None else ScenarioConfig()

    if world is None:
        world = build_core_world(extra_territories=cfg.extra_territories, seed=cfg.seed)
    if topology is None:
        topology = build_topology(world, random.Random(cfg.seed ^ 0x70_70))
    system = NetSessionSystem(
        cfg.system,
        seed=cfg.seed,
        world=world,
        topology=topology,
        locality_aware_selection=cfg.locality_aware_selection,
    )

    cast = None
    if cfg.script is None:
        catalog = build_catalog(random.Random(cfg.seed ^ 0xCA7), cfg.catalog)
        for provider in catalog.providers:
            system.register_provider(provider)
        for obj in catalog.objects:
            system.publish(obj)

        population = build_population(system, catalog.providers, cfg.population,
                                      cfg.duration_days)
        seed_warm_caches(system, population, catalog, cfg.warm_copies_per_peer,
                         random.Random(cfg.seed ^ 0x5EED), cfg.duration_days)

        if cfg.adversary is not None:
            # After warm caches (so stale-advertiser peers have something
            # to go stale on) and from a dedicated string-seeded RNG, so the
            # honest peers' streams are untouched.
            assign_adversaries(population, cfg.adversary, cfg.seed,
                               truth=system.adversary_truth)

        behavior = UserBehavior(system, cfg.behavior)
        behavior.schedule_setting_changes(population, cfg.duration_days)
        behavior.schedule_link_busy_periods(population, cfg.duration_days)

        mobility = MobilityModel(system, cfg.mobility)
        mobility_census = mobility.apply(population, cfg.duration_days)

        cloning = CloningModel(system, cfg.cloning)
        cloning_census = cloning.apply(population, cfg.duration_days)

        demand = DemandGenerator(system, population, catalog, cfg.resolved_demand())
        demand.on_session_started = behavior.attach
        demand.schedule_all()
    else:
        # Seeders boot before the faults arm and the waves after: timers
        # that tie at one instant fire seeders, faults, waves, in that
        # order, which the drill reports depend on.
        cast = ScriptCast(system, cfg.script)
        catalog = population = behavior = None
        mobility_census, cloning_census = {}, {}

    injector = None
    if cfg.faults:
        injector = FaultInjector(system, cfg.faults, seed=cfg.seed ^ 0xFA17)
        injector.arm()
    if cast is not None:
        cast.launch()

    if cfg.placement is not None:
        from repro.core.placement import PredictivePlacer

        placer = PredictivePlacer(system, catalog.objects, cfg.placement)
        placer.start()

    vod_runtime = None
    if cfg.vod is not None:
        # Attached last, so the download workload above is fully scheduled
        # before any VoD draw happens; the engine uses only string-seeded
        # RNGs, keeping the streams independent either way.
        from repro.vod.engine import attach_vod

        vod_runtime = attach_vod(
            system, population, cfg.vod,
            seed=cfg.seed, duration_days=cfg.duration_days,
        )

    system.run(until=cfg.duration_days * DAY)
    finalized = system.finalize_open_downloads()
    # End-of-run audit: the reconciliation checkers need the finalized logs.
    # Observe mode records; strict mode raises on the first error here.
    system.audit(final=True)

    return ScenarioResult(
        config=cfg,
        system=system,
        population=population,
        catalog=catalog,
        behavior=behavior,
        mobility_census=mobility_census,
        cloning_census=cloning_census,
        finalized_downloads=finalized,
        injector=injector,
        vod_runtime=vod_runtime,
        script=cast,
    )
