"""Tests for the predictive-placement extension."""

from __future__ import annotations

import pytest

from repro.core import ContentObject, NetSessionSystem, PlacementConfig, PredictivePlacer
from repro.core.peer import CacheEntry

MB = 1024 * 1024
HOUR = 3600.0


@pytest.fixture
def hot_setup(system, provider):
    """An object with recorded demand in one region, plus idle peers there."""
    obj = ContentObject("hot.bin", 300 * MB, provider, p2p_enabled=True)
    system.publish(obj)
    germany = system.world.by_code["DE"]
    downloaders = []
    for _ in range(4):
        peer = system.create_peer(country=germany, uploads_enabled=True)
        peer.boot()
        peer.start_download(obj)
        downloaders.append(peer)
    system.run(until=4 * HOUR)
    idle = [system.create_peer(country=germany, uploads_enabled=True)
            for _ in range(6)]
    for p in idle:
        p.boot()
    return obj, downloaders, idle


class TestConfig:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            PlacementConfig(interval=0.0)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            PlacementConfig(copies_target=0)


class TestPolicy:
    def test_prefetch_started_for_hot_object(self, system, hot_setup):
        obj, downloaders, idle = hot_setup
        placer = PredictivePlacer(system, [obj],
                                  PlacementConfig(copies_target=8,
                                                  hot_threshold=2))
        started = placer.tick()
        assert started > 0
        assert any(obj.cid in p.sessions for p in idle)

    def test_prefetch_records_flagged(self, system, hot_setup):
        obj, downloaders, idle = hot_setup
        placer = PredictivePlacer(system, [obj],
                                  PlacementConfig(copies_target=8,
                                                  hot_threshold=2))
        placer.tick()
        system.run(until=system.sim.now + 4 * HOUR)
        flagged = [r for r in system.logstore.downloads if r.prefetch]
        assert flagged
        assert all(r.outcome == "completed" for r in flagged)

    def test_cold_object_not_prefetched(self, system, provider):
        obj = ContentObject("cold.bin", 100 * MB, provider, p2p_enabled=True)
        system.publish(obj)
        peer = system.create_peer(uploads_enabled=True)
        peer.boot()
        placer = PredictivePlacer(system, [obj], PlacementConfig(hot_threshold=3))
        assert placer.tick() == 0

    def test_budget_limits_prefetches(self, system, hot_setup):
        obj, downloaders, idle = hot_setup
        placer = PredictivePlacer(
            system, [obj],
            PlacementConfig(copies_target=50, hot_threshold=1,
                            max_prefetches_per_tick=2))
        assert placer.tick() <= 2

    def test_satisfied_region_not_refilled(self, system, hot_setup):
        obj, downloaders, idle = hot_setup
        placer = PredictivePlacer(system, [obj],
                                  PlacementConfig(copies_target=2,
                                                  hot_threshold=1))
        # Region already has >= 2 registered copies from the downloads.
        region = downloaders[0].network_region
        copies = sum(dn.copy_count(obj.cid)
                     for dn in system.control.dns_by_region[region])
        if copies >= 2:
            for peer in idle:
                assert obj.cid not in peer.sessions

    def test_busy_peers_not_drafted(self, system, provider):
        obj = ContentObject("hot.bin", 300 * MB, provider, p2p_enabled=True)
        other = ContentObject("busy.bin", 4000 * MB, provider, p2p_enabled=True)
        system.publish(obj)
        system.publish(other)
        germany = system.world.by_code["DE"]
        for _ in range(3):
            d = system.create_peer(country=germany, uploads_enabled=True)
            d.boot()
            d.start_download(obj)
        system.run(until=2 * HOUR)
        busy = system.create_peer(country=germany, uploads_enabled=True)
        busy.boot()
        busy.start_download(other)
        placer = PredictivePlacer(system, [obj],
                                  PlacementConfig(copies_target=50,
                                                  hot_threshold=1))
        placer.tick()
        assert obj.cid not in busy.sessions
