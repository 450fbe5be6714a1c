"""Peer population synthesis.

Creates the installed base: peers distributed over countries/ASes per the
world model (Figure 2's geography), each bundled by one of the content
providers (which sets the Table 4 upload default), with a small fraction of
*broken* machines (high piece-corruption rate) and *attackers* (accounting
misreporters) to exercise the §6.2 robustness machinery.

Also drives the **online-session process**: NetSession runs whenever the
user is logged in (§3.4), so sessions track the user's computer-use day —
long daily sessions with a diurnal phase per timezone, unlike the short
sessions of launch-on-demand p2p clients.

The population is the system's population store
(:mod:`repro.core.population_store`): struct-of-arrays with lazy
materialization, which reaches paper-scale populations (§4.1's tens of
millions).  :func:`build_population` grows it in bulk
(:mod:`repro.workload.columnar`).  The eager graph that build replaced —
``create_peer`` per install, one live row each — is its byte-for-byte
oracle in ``tests/scale/``; that oracle and hand-built casts reach
:class:`Population` through the same store.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

from repro.bounds import bound, check_bounds
from repro.core.content import ContentProvider
from repro.core.peer import PeerNode
from repro.core.population_store import ColumnarPopulationStore
from repro.core.selection import DeviceTierStage
from repro.core.system import NetSessionSystem
from repro.workload.columnar import build_columnar_store
from repro.workload.devices import DeviceMixConfig

__all__ = ["PopulationConfig", "Population", "build_population", "diurnal_rate"]

DAY = 24 * 3600.0


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs for population synthesis and the online-session process."""

    n_peers: int = bound("[1, inf)", 2000)
    #: Fraction of machines with a fault that corrupts uploaded pieces.
    broken_fraction: float = bound("[0, 1]", 0.002)
    #: Piece-corruption probability on broken machines.
    broken_corruption_prob: float = bound("[0, 1]", 0.25)
    #: Fraction of peers running a client modified to misreport usage.
    attacker_fraction: float = bound("[0, 1]", 0.0)
    #: Mean hours per day a user's machine is on (and NetSession running).
    mean_daily_uptime_hours: float = bound("(0, 24]", 10.0)
    #: When set, only this many peers (a seeded uniform subset) get daily
    #: online-session schedules; the rest stay dormant until demand or a
    #: fault touches them.  Million-peer scenarios need it — scheduling
    #: 40 days of boot/shutdown cycles for every install would swamp the
    #: event heap before the trace starts.  None (default) schedules all.
    active_peer_cap: int | None = bound("[1, inf)", None)
    #: Device-tier mix (smartrouter/mobile/settop heterogeneity).  None —
    #: the default — draws nothing and keeps every golden byte-identical;
    #: a :class:`DeviceMixConfig` adds three class draws per peer (class
    #: pick, always-on override, optional NAT override).
    device: DeviceMixConfig | None = None

    def __post_init__(self):
        check_bounds(self)

    def resolve_store(self) -> str:
        """Always ``"columnar"``: there is one store.  Kept only because
        ``benchmarks/perf/harness.resolved_modes()`` reports it and a PR may
        not change the benchmark it is measured with; nothing under ``src/``
        calls it.  Goes with ROADMAP item 1b."""
        return "columnar"


@dataclass
class Population:
    """The installed base plus per-peer session schedules.

    ``peers`` is the store itself, a sequence of lazy handles over its
    rows (``len``, indexing, iteration).  Prefer :meth:`iter_peers` /
    :meth:`sample_peers` in workload code: they spell out the contract that
    a full scan must not materialize anyone.
    """

    #: The system's population store; every peer is one of its rows.
    store: ColumnarPopulationStore

    @property
    def peers(self) -> ColumnarPopulationStore:
        return self.store

    def peer_count(self) -> int:
        """Number of installations."""
        return len(self.peers)

    def iter_peers(self, device_class: str | None = None) -> Iterator[PeerNode]:
        """Iterate the installed base in creation order.

        The one sanctioned way to write a population-wide scan: it yields
        lazy handles whose reads come from the columns, so sweeping a
        million peers materializes none of them.
        ``device_class`` filters to one tier (``peer.device_class`` is a
        dormant column read, so the filtered scan is scan-cheap too).
        """
        if device_class is None:
            return iter(self.peers)
        return (p for p in self.peers if p.device_class == device_class)

    def sample_peers(self, rng: random.Random, k: int,
                     device_class: str | None = None) -> list[PeerNode]:
        """Draw ``k`` distinct peers with ``rng.sample`` semantics.

        The draw sequence depends only on the (filtered) population size,
        so it picks the same creation-order rows from the same RNG state
        however the rows were built, and materializes no one.
        ``device_class`` restricts the draw to one tier.
        """
        rows = range(self.peer_count())
        if device_class is not None:
            rows = [i for i, name in enumerate(self.column("device_class"))
                    if name == device_class]
        return [self.store.handle(i)
                for i in rng.sample(rows, min(k, len(rows)))]

    def device_census(self) -> dict[str, int]:
        """Install count per device class (``{}`` when tiers are off)."""
        census: dict[str, int] = {}
        for peer in self.peers:
            if peer.device is None:
                continue
            name = peer.device.name
            census[name] = census.get(name, 0) + 1
        return census

    def device_classes(self) -> dict[str, str]:
        """guid → device-class name for tiered peers (dormant reads)."""
        return {p.guid: p.device.name for p in self.peers
                if p.device is not None}

    def column(self, name: str) -> list:
        """Attribute ``name`` of every peer, in creation order.

        For set-up passes that classify every install but act on few:
        scan this, index ``peers`` only for the rows to schedule, and the
        store hands out no handle (and derives no GUID) otherwise.
        """
        return self.store.column(name)


def build_population(
    system: NetSessionSystem,
    providers: list[ContentProvider],
    config: PopulationConfig | None = None,
    duration_days: float | None = None,
) -> Population:
    """Create peers and schedule their daily online sessions.

    Each peer is attributed to the provider it first installed from,
    weighted by that provider's share of downloads — so the Table 4
    upload-default mix emerges naturally.  Session events dated after
    ``duration_days`` (the length of the run) are drawn but not pushed;
    None pushes the whole 40-day horizon.
    """
    cfg = config if config is not None else PopulationConfig()
    rng = random.Random(system.rng.getrandbits(64))

    build_columnar_store(system, providers, cfg, rng)
    population = Population(store=system.population_store)
    _finish_population(system, population, cfg, rng, duration_days)
    return population


def _finish_population(system: NetSessionSystem, population: Population,
                       cfg: PopulationConfig, rng: random.Random,
                       duration_days: float | None) -> None:
    """Everything after the peers exist, so the eager oracle in
    ``tests/scale/`` ends its build with the same call."""
    _schedule_sessions(
        system, population, cfg, rng,
        math.inf if duration_days is None else duration_days * DAY)
    system.device_mix = cfg.device
    if cfg.device is not None:
        weights = cfg.device.rank_weights()
        if weights is not None:
            system.control.install_stage(DeviceTierStage(weights))


def _schedule_sessions(
    system: NetSessionSystem,
    population: Population,
    cfg: PopulationConfig,
    rng: random.Random,
    until: float,
) -> None:
    """Schedule boot/shutdown cycles for every (scheduled) peer.

    Always-on peers boot once.  Daily-cycle peers boot each local morning
    (with jitter) and shut down after a sampled uptime; a small per-day skip
    probability models days the machine stays off.  With
    ``active_peer_cap`` set, a seeded uniform subset of that size gets
    schedules and the rest stay dormant until demand boots them.  Events
    dated after ``until`` are drawn but not pushed.
    """
    sim = system.sim
    count = population.peer_count()
    scheduled = range(count)
    if cfg.active_peer_cap is not None and cfg.active_peer_cap < count:
        scheduled = sorted(rng.sample(scheduled, cfg.active_peer_cap))
    uptime_mean = cfg.mean_daily_uptime_hours * 3600.0
    store = population.store
    for index in scheduled:
        # Column reads: a row makes no handle until it gets an event.
        tz, device = float(store.tz[index]), store.device_at(index)
        if store.always_on[index]:
            sim.schedule(rng.uniform(0, 3600.0), store[index].boot)
            continue
        if device is None:
            _schedule_peer_days(sim, store, index, tz, uptime_mean, rng, until)
        else:
            # Class-driven availability: a mobile install keeps short,
            # frequently skipped sessions; a settop box sits in between.
            _schedule_peer_days(
                sim, store, index, tz, device.uptime_hours_mean * 3600.0,
                rng, until, skip_prob=device.daily_skip_prob)


def _schedule_peer_days(
    sim,
    peers,
    row: int,
    tz_offset: float,
    uptime_mean: float,
    rng: random.Random,
    until: float,
    *,
    horizon_days: int = 40,
    skip_prob: float = 0.12,
) -> None:
    """Draw ``horizon_days`` of sessions whatever ``until`` is (the stream
    must end in the same state for any run length); push the events dated
    up to and including ``until``, resolving ``peers[row]`` only for those."""
    for day in range(horizon_days):
        if rng.random() < skip_prob:
            continue  # machine stays off today
        # Local morning start: 8am ± 2h, mapped back to simulation (UTC) time.
        local_start = day * DAY + rng.gauss(8.0, 2.0) * 3600.0
        start = local_start - tz_offset
        if start < sim.now:
            continue
        uptime = max(1800.0, rng.expovariate(1.0 / uptime_mean))
        uptime = min(uptime, 23.0 * 3600.0)
        if start <= until:
            peer = peers[row]
            sim.schedule_at(start, peer.boot)
            if start + uptime <= until:
                sim.schedule_at(start + uptime, peer.go_offline)


def diurnal_rate(t: float, tz_offset: float = 0.0) -> float:
    """Relative activity level at simulated time ``t`` for a timezone.

    A smooth day curve peaking in the local evening (~20:00) and bottoming
    early morning (~04:00), as in Figure 3(c)'s diurnal download pattern.
    Returns a multiplier in [0.15, 1.0].
    """
    local = (t + tz_offset) % DAY
    hours = local / 3600.0
    # Cosine with peak at 20h.
    phase = math.cos((hours - 20.0) / 24.0 * 2.0 * math.pi)
    return 0.575 + 0.425 * phase
