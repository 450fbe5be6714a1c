"""The idling edge backstop and registration refresh against their
fixed-period twins (:mod:`tests.core.fixed_period`).

Each scene runs twice, once with both clocks idling and once with both
ticking every period, and every record and every counter outside
``EVENT_ONLY`` must compare equal.  Each scene also asserts the idle run
skipped work, so no comparison passes vacuously.
"""

from __future__ import annotations

import pytest

from repro.core import ContentObject, ContentProvider, NetSessionSystem
from repro.core.config import InvariantConfig, SystemConfig
from repro.core.peer import CacheEntry
from repro.net.sim import Clock
from repro.runner import run_scenario_artifact
from tests.core.fixed_period import fixed_period, observables

MB = 1024 * 1024
#: Peers booted at t=0 refresh on this grid (registration_ttl / 3).
REFRESH = 7200.0


def both_ways(scene):
    """``scene()`` -> (system-like, logstore, stats), run idling and fixed;
    return the two observables and the two event counts."""
    idle = scene()
    with fixed_period():
        fixed = scene()
    return (observables(idle[1], idle[2]), observables(fixed[1], fixed[2]),
            idle[2].events_processed, fixed[2].events_processed)


def assert_same(scene):
    idle, fixed, idle_events, fixed_events = both_ways(scene)
    assert idle == fixed
    assert idle_events < fixed_events


def _objects(n, *, size_mb=300):
    provider = ContentProvider(cp_code=9300, name="IdleCo")
    return [ContentObject(f"idle/{i}.bin", size_mb * MB, provider,
                          p2p_enabled=True) for i in range(n)]


def _peer(system, *, cached=(), uploads=True):
    peer = system.create_peer(country=system.world.by_code["DE"],
                              uploads_enabled=uploads)
    for obj in cached:
        peer.cache[obj.cid] = CacheEntry(obj.cid, completed_at=0.0)
    peer.boot()
    return peer


def _swarm(objects, *, seeders=6, idle=4, seed=11, config=None):
    system = NetSessionSystem(config, seed=seed)
    for obj in objects:
        system.publish(obj)
        for _ in range(seeders):
            _peer(system, cached=[obj])
    idle_peers = [_peer(system) for _ in range(idle)]
    return system, idle_peers


def _done(system, until):
    system.run(until=until)
    return system, system.logstore, system.stats()


@pytest.fixture
def same_instant_wakes(monkeypatch):
    """Count wakes that land on the dormant entry's own instant at ``now``:
    the woken tick fires at that instant only if its twin's comes later."""
    seen = []
    real = Clock.wake

    def wake(self):
        if self.suspended and self._entry is not None and self._entry.dormant:
            seen.append(self.next_at == self._sim.now)
        real(self)

    monkeypatch.setattr(Clock, "wake", wake)
    return seen


class TestSwarmScenes:
    def test_downloads_and_idle_peers(self):
        # The 9 000 s downloader idled its refresh at REFRESH, empty; its
        # completion must wake it, or its registration expires (6 h TTL)
        # before the late downloaders ask the directory.
        def scene():
            objs = _objects(2)
            system, _ = _swarm(objs)
            starts = (60.0, 2000.0, 9000.0, 5 * REFRESH, 6 * REFRESH)
            for i, at in enumerate(starts):
                peer = _peer(system)
                system.sim.schedule_at(
                    at, lambda p=peer, o=objs[i % 2]: p.start_download(o))
            return _done(system, 8 * REFRESH)

        assert_same(scene)

    def test_pause_and_resume_across_refresh_instants(self):
        def scene():
            objs = _objects(1, size_mb=900)
            system, _ = _swarm(objs, seeders=3)
            peer = _peer(system)
            sim = system.sim
            sim.schedule_at(100.0, lambda: peer.start_download(objs[0]))
            sim.schedule_at(400.0, peer.go_offline)
            sim.schedule_at(REFRESH, peer.go_online)  # on the refresh grid
            return _done(system, 4 * REFRESH)

        assert_same(scene)

    def test_two_sessions_resumed_in_one_event(self, same_instant_wakes):
        # Both backstops re-arm in the resuming event: one grid, one
        # downlink.  When the first one's tick moves the cap, the second
        # one's peer rates move in that instant's settlement, and its
        # fixed twin still fires at that instant.
        def scene():
            objs = _objects(2, size_mb=600)
            system, _ = _swarm(objs, seeders=4, idle=0, seed=12)
            peer = _peer(system)
            sim = system.sim
            for obj in objs:
                sim.schedule_at(30.0, lambda o=obj: peer.start_download(o))
            sim.schedule_at(200.0, peer.go_offline)
            sim.schedule_at(260.0, peer.go_online)
            return _done(system, 3 * REFRESH)

        assert_same(scene)
        assert any(same_instant_wakes)


class TestSampledAudits:
    def test_strict_audits_sample_where_the_fixed_period_did(self):
        # A dormant tick counts toward the every-N-events audit countdown
        # as its twin's no-op tick did, so quiet phases are sampled as
        # often and the audit counters compare equal too.
        def scene():
            objs = _objects(2)
            config = SystemConfig(
                invariants=InvariantConfig(mode="strict", every_events=7))
            system, _ = _swarm(objs, config=config)
            peer = _peer(system)
            system.sim.schedule_at(60.0, lambda: peer.start_download(objs[0]))
            return _done(system, 4 * REFRESH)

        idle, fixed, idle_events, fixed_events = both_ways(scene)
        assert idle == fixed and idle_events < fixed_events
        assert idle[1]["inv_audits"] > 0


class TestRefreshWakeSources:
    def test_uploads_toggle(self):
        # The holder idles at REFRESH with uploads off; switching them on
        # must wake the refresh, or its entry expires before the late
        # downloaders' queries count it.
        def scene():
            objs = _objects(1)
            system, idle = _swarm(objs, seeders=2, idle=2)
            holder = _peer(system, cached=objs, uploads=False)
            sim = system.sim
            sim.schedule_at(1.5 * REFRESH, lambda: holder.set_uploads_enabled(True))
            sim.schedule_at(2.5 * REFRESH, lambda: holder.set_uploads_enabled(False))
            sim.schedule_at(4 * REFRESH, lambda: holder.set_uploads_enabled(True))
            for peer, at in zip(idle, (8 * REFRESH, 9 * REFRESH)):
                sim.schedule_at(at, lambda p=peer: p.start_download(objs[0]))
            return _done(system, 10 * REFRESH)

        assert_same(scene)

    @pytest.mark.parametrize("scheduled_at", [0.0, 1.5 * REFRESH])
    def test_cn_fails_at_a_refresh_instant(self, scheduled_at,
                                           same_instant_wakes):
        # Scheduled at setup, the crash precedes the idle peers' refresh at
        # 2 * REFRESH (their twins re-armed at REFRESH): they fail over at
        # once.  Scheduled after REFRESH, it follows them: the next refresh
        # instant is theirs.
        def scene():
            system, idle = _swarm(_objects(1), seeders=2, idle=4)
            cn = idle[0].cn

            def crash():
                system.control.fail_cn(cn)

            system.sim.schedule_at(
                scheduled_at,
                lambda: system.sim.schedule_at(2 * REFRESH, crash))
            return _done(system, 5 * REFRESH)

        assert_same(scene)
        assert any(same_instant_wakes) == (scheduled_at == 0.0)


def _drill(scenario):
    from repro.faults.drill import drill_config

    # The fault lands on the refresh grid of the cast (booted at t=0),
    # after the first refresh idled every peer with nothing to share.
    return drill_config(scenario, seed=3, n_seeders=6, wave_size=2,
                        fault_at=2 * REFRESH, fault_duration=3600.0,
                        horizon=5 * REFRESH)


@pytest.mark.parametrize("scenario", [
    "cn_flap", "control_partition", "link_degradation",
    "control_message_loss", "control_latency_spike",
    "adversarial_infestation",
])
def test_fault_drill_matches_the_fixed_period(scenario):
    def scene():
        artifact = run_scenario_artifact(_drill(scenario))
        return artifact, artifact.logstore, artifact.stats

    assert_same(scene)


def test_link_degradation_of_an_edge_only_download():
    # Nobody seeds the object, so it downloads over the edge alone: no
    # peer flow re-rates when the link degrades, yet the backstop's cap
    # (a fraction of the downlink) moves.
    from repro.faults.spec import LinkDegradation
    from repro.workload import ScenarioConfig
    from repro.workload.script import Script, ScriptObject, Wave

    config = ScenarioConfig(
        seed=4, duration_days=0.5,
        script=Script(
            objects=(ScriptObject("unseeded.bin", 900 * MB, 9301, "IdleCo"),),
            waves=(Wave("w", (60.0,)),)),
        faults=(LinkDegradation("links", start=200.0, duration=300.0,
                                fraction=1.0),),
    )

    def scene():
        artifact = run_scenario_artifact(config)
        return artifact, artifact.logstore, artifact.stats

    assert_same(scene)


@pytest.mark.parametrize("faults", ["none", "infestation"])
def test_synthetic_trace_matches_the_fixed_period(faults):
    # The infestation switches uploads on for peers that idled their
    # refresh with warm caches and uploads off.
    from repro.faults.spec import AdversarialInfestation
    from repro.workload import DemandConfig, PopulationConfig, ScenarioConfig

    config = ScenarioConfig(
        seed=19, duration_days=2.0,
        population=PopulationConfig(n_peers=300),
        demand=DemandConfig(total_downloads=200, duration_days=2.0),
        faults=() if faults == "none" else (
            AdversarialInfestation("infest", start=30_000.0, fraction=0.5,
                                   profile="free_rider"),),
    )

    def scene():
        artifact = run_scenario_artifact(config)
        return artifact, artifact.logstore, artifact.stats

    assert_same(scene)


class TestTickWorkBound:
    """Deterministic work bounds (counts, not stopwatches) on the first
    seed-42 trace of two benchmark workloads.  With every backstop tick and
    every refresh firing, ``download_trace`` processed 65 443 events and
    ``installed_base`` 35 992; idling cuts them to 43 717 and 13 397."""

    @pytest.mark.parametrize("workload, bound", [
        ("download_trace", 48_000), ("installed_base", 16_000)])
    def test_events_processed(self, workload, bound):
        from benchmarks.perf.workloads import WORKLOADS

        artifact = run_scenario_artifact(WORKLOADS[workload].config(42))
        assert artifact.stats.events_processed <= bound
