"""Compound-failure tests: overlapping faults racing each other (§3.8).

The single-fault specs are covered in test_spec.py; these tests overlap
faults whose recovery paths interact — a DN wipe whose RE-ADD broadcast
lands in the middle of a churn storm, and directory soft-state expiry
racing a region partition that blocks the refresh that would renew it.
"""

from __future__ import annotations

import pytest

from repro.core import ContentObject, ContentProvider, NetSessionSystem, SystemConfig
from repro.core.control.channel import DEGRADED
from repro.core.peer import CacheEntry
from repro.faults import (
    ControlLatencySpike, ControlMessageLoss, DNWipe, FaultInjector,
    PeerChurnStorm, RegionPartition,
)

HOUR = 3600.0
MB = 1024 * 1024


def build_system(config=None, seed=11, n_peers=12):
    system = NetSessionSystem(config=config, seed=seed)
    provider = ContentProvider(cp_code=1, name="P")
    obj = ContentObject("c.bin", 100 * MB, provider, p2p_enabled=True)
    system.publish(obj)
    country = system.world.by_code["DE"]
    for _ in range(n_peers):
        p = system.create_peer(country=country, uploads_enabled=True)
        p.cache[obj.cid] = CacheEntry(obj.cid, completed_at=0.0)
        p.boot()
    return system, obj


class TestNewSpecValidation:
    def test_loss_prob_range(self):
        with pytest.raises(ValueError):
            ControlMessageLoss("x", start=0.0, loss_prob=1.0)
        with pytest.raises(ValueError):
            ControlMessageLoss("x", start=0.0, loss_prob=-0.1)

    def test_latency_nonnegative(self):
        with pytest.raises(ValueError):
            ControlLatencySpike("x", start=0.0, latency=-1.0)


class TestNewSpecsApplyRevert:
    def test_message_loss_sets_and_restores_loss_prob(self):
        system, _ = build_system()
        spec = ControlMessageLoss("loss", start=0.0, duration=60.0,
                                  fraction=0.5, loss_prob=0.4)
        injector = FaultInjector(system, (spec,), seed=3)
        injector.arm()
        system.run(until=30.0)
        lossy = [p for p in system.iter_peer_nodes() if p.channel.loss_prob == 0.4]
        assert 0 < len(lossy) < len(system.iter_peer_nodes())
        system.run(until=120.0)
        assert all(p.channel.loss_prob == 0.0 for p in system.iter_peer_nodes())

    def test_latency_spike_sets_and_restores_latency(self):
        system, _ = build_system()
        spec = ControlLatencySpike("lat", start=0.0, duration=60.0,
                                   latency=5.0)
        injector = FaultInjector(system, (spec,), seed=3)
        injector.arm()
        system.run(until=30.0)
        assert all(p.channel.latency == 5.0 for p in system.iter_peer_nodes())
        system.run(until=120.0)
        assert all(p.channel.latency == 0.0 for p in system.iter_peer_nodes())

    def test_partition_scopes_to_region(self):
        system, _ = build_system()
        us = system.world.by_code["US"]
        outsider = system.create_peer(country=us, uploads_enabled=True)
        outsider.boot()
        assert outsider.network_region != "eu"
        spec = RegionPartition("part", start=0.0, duration=60.0, region="eu")
        injector = FaultInjector(system, (spec,), seed=3)
        injector.arm()
        system.run(until=30.0)
        eu = [p for p in system.iter_peer_nodes() if p.network_region == "eu"]
        assert eu and all(not p.channel.reachable for p in eu)
        assert outsider.channel.reachable
        system.run(until=120.0)
        assert all(p.channel.reachable for p in system.iter_peer_nodes())


class TestDNWipeDuringChurnStorm:
    """RE-ADD repopulation racing a storm of disconnects."""

    def test_directory_recovers_despite_churning_responders(self):
        system, obj = build_system(n_peers=16)
        system.run(until=10.0)
        regs_before = system.control.total_registrations()
        assert regs_before >= 16

        storm = PeerChurnStorm("storm", start=300.0, duration=900.0,
                               fraction=0.5, downtime=(60.0, 240.0))
        wipe = DNWipe("wipe", start=600.0, re_add=True)  # mid-storm
        injector = FaultInjector(system, (storm, wipe), seed=5)
        injector.arm()

        # run past the storm and every churned peer's return
        system.run(until=3000.0)
        # every online peer answered RE-ADD or re-registered on its
        # come-back login; nobody is stuck degraded
        online = [p for p in system.iter_peer_nodes() if p.online]
        assert online
        assert system.control.total_registrations() >= len(online)
        assert all(p.channel.state != DEGRADED for p in online)
        rec = injector.recoveries["wipe"]
        assert rec.re_add_convergence is not None

    def test_compound_run_is_deterministic(self):
        def run_once():
            system, _ = build_system(n_peers=16)
            storm = PeerChurnStorm("storm", start=300.0, duration=900.0,
                                   fraction=0.5, downtime=(60.0, 240.0))
            wipe = DNWipe("wipe", start=600.0, re_add=True)
            injector = FaultInjector(system, (storm, wipe), seed=5)
            injector.arm()
            system.run(until=3000.0)
            return (system.control.total_registrations(),
                    system.channel_stats.as_dict(),
                    [str(e) for e in injector.timeline])

        assert run_once() == run_once()


class TestSoftStateExpiryRacingPartition:
    """A partition blocks the refresh that would renew the soft state:
    registrations must expire (the DN side is honest) and then come back
    once the partition heals and the breaker probes reconnect everyone."""

    def test_registrations_expire_then_recover(self):
        ttl = 900.0
        config = SystemConfig().with_control_plane(registration_ttl=ttl)
        system, obj = build_system(config=config, n_peers=8)
        system.run(until=10.0)
        assert system.control.total_registrations() >= 8

        # partition the whole fleet across the hourly expiry sweep: every
        # refresh fails, breakers trip, and the sweep reaps the directory
        heal_t = 2 * HOUR
        spec = RegionPartition("cut", start=60.0, duration=heal_t - 60.0)
        injector = FaultInjector(system, (spec,), seed=9)
        injector.arm()
        system.run(until=HOUR + 600.0)  # mid-partition, past the sweep
        assert system.control.total_registrations() == 0
        degraded = [p for p in system.iter_peer_nodes() if p.channel.state == DEGRADED]
        assert degraded  # refreshes failed into the breaker

        # heal: probes reconnect, logins re-register the cached objects
        probe = system.config.channel.probe_interval
        system.run(until=heal_t + probe + ttl)
        assert all(p.channel.state != DEGRADED
                   for p in system.iter_peer_nodes() if p.online)
        assert system.control.total_registrations() >= sum(
            1 for p in system.iter_peer_nodes() if p.online)
        assert system.channel_stats.recoveries >= len(degraded)
