"""Tests for the injector engine: scheduling, determinism, the timeline."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import ContentObject, ContentProvider, NetSessionSystem
from repro.core.peer import CacheEntry
from repro.faults import (
    CNOutage, ControlPlaneBlackout, DNWipe, FaultInjector, LinkDegradation,
    PeerChurnStorm, build_scenario, scenario_names,
)

HOUR = 3600.0


def build_system(seed=17, n_peers=12):
    system = NetSessionSystem(seed=seed)
    provider = ContentProvider(cp_code=1, name="P")
    obj = ContentObject("f.bin", 200 * 1024 * 1024, provider, p2p_enabled=True)
    system.publish(obj)
    country = system.world.by_code["DE"]
    for _ in range(n_peers):
        p = system.create_peer(country=country, uploads_enabled=True)
        p.cache[obj.cid] = CacheEntry(obj.cid, 0.0)
        p.boot()
    return system, obj


SPECS = (
    CNOutage("outage", start=100.0, duration=300.0, fraction=0.5),
    DNWipe("wipe", start=200.0),
    LinkDegradation("deg", start=400.0, duration=600.0, fraction=0.4),
    PeerChurnStorm("storm", start=500.0, duration=300.0, fraction=0.3),
)


class TestArming:
    def test_duplicate_names_rejected(self):
        system, _ = build_system()
        with pytest.raises(ValueError, match="duplicate"):
            FaultInjector(system, (DNWipe("x", start=0.0), DNWipe("x", start=9.0)))

    def test_double_arm_rejected(self):
        system, _ = build_system()
        injector = FaultInjector(system, SPECS)
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_specs_sorted_by_start_then_name(self):
        system, _ = build_system()
        injector = FaultInjector(system, reversed(SPECS))
        assert [s.name for s in injector.specs] == ["outage", "wipe", "deg", "storm"]


class TestTimeline:
    def test_apply_and_revert_recorded_in_order(self):
        system, _ = build_system()
        injector = FaultInjector(system, SPECS)
        injector.arm()
        system.run(until=2 * HOUR)
        phases = [(e.fault, e.phase) for e in injector.timeline]
        # At t=400 the degradation's apply (scheduled at arm time) fires
        # before the outage's revert (scheduled later, at apply time):
        # same-time events run in scheduling order.
        assert phases == [
            ("outage", "applied"),
            ("wipe", "applied"),        # instantaneous: no revert entry
            ("deg", "applied"),
            ("outage", "reverted"),
            ("storm", "applied"),
            ("storm", "reverted"),      # no-op revert, still recorded
            ("deg", "reverted"),
        ]
        times = [e.time for e in injector.timeline]
        assert times == sorted(times)

    def test_lifecycle_recorded_on_the_timeline(self):
        system, _ = build_system()
        injector = FaultInjector(system, SPECS)
        injector.arm()
        system.run(until=2 * HOUR)
        phases = Counter(e.phase for e in injector.timeline)
        assert phases == {"applied": 4, "reverted": 3}

    def test_timeline_text_is_one_line_per_event(self):
        system, _ = build_system()
        injector = FaultInjector(system, SPECS)
        injector.arm()
        system.run(until=2 * HOUR)
        lines = injector.timeline_text().splitlines()
        assert len(lines) == len(injector.timeline)
        assert "applied" in lines[0] and "outage" in lines[0]


class TestDeterminism:
    def run_timeline(self, seed, injector_seed, specs=None):
        system, obj = build_system(seed=seed)
        downloader = system.create_peer(
            country=system.world.by_code["DE"], uploads_enabled=True)
        downloader.boot()
        system.sim.schedule_at(50.0, lambda: downloader.start_download(obj))
        injector = FaultInjector(
            system, specs if specs is not None else SPECS, seed=injector_seed)
        injector.arm()
        system.run(until=3 * HOUR)
        return injector

    def test_same_seed_identical_timeline_and_recoveries(self):
        a = self.run_timeline(17, 5)
        b = self.run_timeline(17, 5)
        assert a.timeline == b.timeline
        assert a.timeline_text() == b.timeline_text()
        for name in a.recoveries:
            ra, rb = a.recoveries[name], b.recoveries[name]
            assert (ra.pre_connected, ra.post_connected) == \
                   (rb.pre_connected, rb.post_connected)
            assert ra.time_to_reconnect == rb.time_to_reconnect
            assert ra.re_add_convergence == rb.re_add_convergence

    def test_adding_a_fault_does_not_perturb_other_victims(self):
        # Per-fault string-seeded RNGs: the degradation picks the same
        # victims whether or not an unrelated fault runs alongside it.
        deg = LinkDegradation("deg", start=400.0, duration=600.0, fraction=0.4)
        alone = self.run_timeline(17, 5, specs=(deg,))
        extra = (DNWipe("wipe", start=200.0), deg)
        together = self.run_timeline(17, 5, specs=extra)
        dip_alone = alone.recoveries["deg"]
        dip_together = together.recoveries["deg"]
        assert dip_alone.applied_at == dip_together.applied_at


class TestScenarioLibrary:
    def test_every_scenario_builds_and_validates(self):
        for name in scenario_names():
            specs = build_scenario(name, at=100.0, duration=600.0)
            assert specs
            assert all(s.start >= 100.0 for s in specs)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown fault scenario"):
            build_scenario("meteor_strike")

    def test_every_scenario_runs_against_a_live_system(self):
        for name in scenario_names():
            system, _ = build_system()
            injector = FaultInjector(
                system, build_scenario(name, at=60.0, duration=300.0))
            injector.arm()
            system.run(until=HOUR)
            assert len(injector.recoveries) == len(injector.specs)
            assert injector.timeline
