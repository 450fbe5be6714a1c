"""Tests for the control-channel reliability layer (§3.8).

Covers the lossy-RPC transport (latency, loss, timeouts), capped-backoff
retries, CN failover, the circuit breaker with recovery probes, and the
refresh-failover regression (a peer whose CN died must not let its
directory registrations silently expire).
"""

from __future__ import annotations

import pytest

from repro.core import ContentObject, ContentProvider, NetSessionSystem, SystemConfig
from repro.core.config import ControlChannelConfig
from repro.core.control.channel import DEGRADED, HEALTHY
from repro.core.peer import CacheEntry

HOUR = 3600.0
MB = 1024 * 1024


def build_system(config=None, seed=7):
    return NetSessionSystem(config=config, seed=seed)


def seeded_peer(system, cid="chan.bin", size=100 * MB):
    """One booted DE peer that caches (and has registered) one object."""
    provider = ContentProvider(cp_code=1, name="P")
    obj = ContentObject(cid, size, provider, p2p_enabled=True)
    system.publish(obj)
    country = system.world.by_code["DE"]
    peer = system.create_peer(country=country, uploads_enabled=True)
    peer.cache[obj.cid] = CacheEntry(obj.cid, completed_at=0.0)
    peer.boot()
    return peer, obj


class TestChannelConfig:
    def test_defaults_are_ideal(self):
        cfg = ControlChannelConfig()
        assert cfg.latency == 0.0
        assert cfg.loss_prob == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlChannelConfig(latency=-1.0)
        with pytest.raises(ValueError):
            ControlChannelConfig(loss_prob=1.0)
        with pytest.raises(ValueError):
            ControlChannelConfig(breaker_threshold=0)
        with pytest.raises(ValueError):
            ControlChannelConfig(probe_interval=0.0)


class TestIdealChannel:
    """Default config: synchronous, event-free, byte-identical to PR 2."""

    def test_login_is_synchronous(self):
        system = build_system()
        peer, _ = seeded_peer(system)
        # cn assigned before boot() returned; no sim time has passed
        assert peer.cn is not None and peer.cn.alive
        assert peer.guid in peer.cn.connected
        assert system.sim.now == 0.0

    def test_ideal_requests_schedule_no_wire_attempts(self):
        system = build_system()
        peer, obj = seeded_peer(system)
        peer.channel.refresh_registrations()
        stats = system.channel_stats
        assert stats.requests >= 2  # login + refresh at least
        assert stats.attempts == 0  # fast path: nothing on the "wire"
        assert stats.retries == 0
        assert stats.timeouts == 0
        assert peer.channel.state == HEALTHY


class TestLatentChannel:
    def test_login_completes_after_round_trip(self):
        config = SystemConfig(channel=ControlChannelConfig(latency=1.0))
        system = build_system(config)
        peer, _ = seeded_peer(system)
        # the login is in flight: one-way latency each direction
        assert peer.cn is None
        system.run(until=3.0)
        assert peer.cn is not None and peer.cn.alive
        assert system.channel_stats.attempts >= 1

    def test_latency_past_timeout_behaves_as_loss(self):
        config = SystemConfig(channel=ControlChannelConfig(latency=30.0, request_timeout=15.0))
        system = build_system(config)
        peer, _ = seeded_peer(system)
        system.run(until=40.0)
        # every response lands after the timeout and is dropped as stale
        assert system.channel_stats.timeouts >= 1
        assert peer.cn is None


class TestLossyChannel:
    def test_retries_eventually_deliver(self):
        config = SystemConfig(channel=ControlChannelConfig(latency=0.2, loss_prob=0.5))
        system = build_system(config)
        peer, _ = seeded_peer(system)
        system.run(until=20 * 60.0)
        stats = system.channel_stats
        assert peer.cn is not None and peer.cn.alive
        assert stats.lost_messages >= 1

    def test_loss_is_deterministic_per_seed(self):
        def counters():
            config = SystemConfig(channel=ControlChannelConfig(latency=0.2, loss_prob=0.4))
            system = build_system(config, seed=11)
            peer, _ = seeded_peer(system)
            peer.channel.refresh_registrations()
            system.run(until=10 * 60.0)
            return system.channel_stats.as_dict()

        assert counters() == counters()


class TestBreakerAndProbes:
    def test_blackout_trips_breaker_then_probe_recovers(self):
        system = build_system()
        peer, obj = seeded_peer(system)
        cfg = system.config.channel
        system.run(until=10.0)
        system.control.blackout()
        # the next RPC finds nothing reachable, retries, and trips
        peer.channel.refresh_registrations()
        system.run(until=10.0 + 120.0)
        assert peer.channel.state == DEGRADED
        assert peer.channel.times_degraded == 1
        assert peer.cn is None
        assert system.channel_stats.breaker_trips == 1
        # probes run and fail while the plane is down
        failures_mid = system.channel_stats.probe_failures
        assert failures_mid >= 1

        restore_t = system.sim.now
        system.control.restore()  # self recovery: no scheduled reconnects
        system.run(until=restore_t + cfg.probe_interval + 5.0)
        assert peer.channel.state == HEALTHY
        assert peer.cn is not None and peer.cn.alive
        assert peer.guid in peer.cn.connected
        assert system.channel_stats.recoveries == 1
        assert peer.channel.last_recovered_at is not None
        assert peer.channel.last_recovered_at - restore_t <= cfg.probe_interval
        # the degraded period is accounted
        assert system.channel_stats.degraded_seconds > 0
        assert system.channel_stats.mean_time_to_recover > 0
        # recovery re-registered the cached object with the directory
        assert system.control.total_registrations() >= 1
        assert peer.cache[obj.cid].registered

    def test_degraded_channel_drops_new_requests(self):
        system = build_system()
        peer, _ = seeded_peer(system)
        system.run(until=10.0)
        system.control.blackout()
        peer.channel.refresh_registrations()
        system.run(until=200.0)
        assert peer.channel.state == DEGRADED
        before = system.channel_stats.dropped_degraded
        peer.channel.refresh_registrations()
        assert system.channel_stats.dropped_degraded == before + 1

    def test_offline_closes_degraded_period_without_recovery(self):
        system = build_system()
        peer, _ = seeded_peer(system)
        system.run(until=10.0)
        system.control.blackout()
        peer.channel.refresh_registrations()
        system.run(until=200.0)
        assert peer.channel.state == DEGRADED
        peer.go_offline()
        assert peer.channel.state == HEALTHY
        assert peer.channel.degraded_since is None
        assert system.channel_stats.degraded_seconds > 0
        assert system.channel_stats.recoveries == 0


class TestFailover:
    def test_request_fails_over_when_cn_dies(self):
        system = build_system()
        peer, _ = seeded_peer(system)
        system.run(until=10.0)
        dead = peer.cn
        system.control.fail_cn(dead)
        # reconnects are scheduled by fail_cn, but the channel does not
        # wait for them: the very next RPC re-homes on a live CN.
        peer.channel.refresh_registrations()
        assert peer.cn is not None
        assert peer.cn is not dead
        assert peer.cn.alive
        assert peer.guid in peer.cn.connected
        assert system.channel_stats.failovers >= 1

    def test_recovered_cn_with_empty_table_is_not_trusted(self):
        # A CN that crashed and restarted looks alive again, but it no
        # longer holds our control connection: membership in its table is
        # the ground truth, and the next RPC re-logs-in.
        system = build_system()
        peer, _ = seeded_peer(system)
        system.run(until=10.0)
        cn = peer.cn
        cn.fail()
        cn.recover()
        assert cn.alive and peer.guid not in cn.connected
        peer.channel.refresh_registrations()
        assert peer.cn is not None and peer.cn.alive
        assert peer.guid in peer.cn.connected


class TestRefreshFailoverRegression:
    """The periodic refresh must survive a dead CN (it used to no-op)."""

    def test_registrations_survive_cn_death_across_refresh(self):
        ttl = 1800.0
        config = SystemConfig().with_control_plane(registration_ttl=ttl)
        system = build_system(config)
        peer, obj = seeded_peer(system)
        system.run(until=10.0)
        assert system.control.total_registrations() >= 1
        system.control.fail_cn(peer.cn)
        # run far past the TTL: the periodic refresh (ttl/3) must fail
        # over and keep the registration alive in the directory
        system.run(until=3 * ttl)
        assert peer.cn is not None and peer.cn.alive
        assert system.control.total_registrations() >= 1
        assert peer.online


class TestUsageReportGiveup:
    def test_reports_defer_to_accounting_when_plane_is_down(self):
        system = build_system()
        provider = ContentProvider(cp_code=1, name="P")
        obj = ContentObject("dl.bin", 40 * MB, provider, p2p_enabled=True)
        system.publish(obj)
        country = system.world.by_code["DE"]
        peer = system.create_peer(country=country)
        peer.boot()
        session = peer.start_download(obj)
        system.run(until=5.0)
        system.control.blackout()
        system.run(until=2 * HOUR)
        # the download finished during the blackout; the usage report gave
        # up on the wire but was ingested, so billing still sees it
        assert session.state == "completed"
        assert any(r.outcome == "completed" for r in system.accounting.accepted)
        assert system.channel_stats.giveups >= 1
