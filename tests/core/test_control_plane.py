"""Tests for control-plane assembly and §3.8 robustness."""

from __future__ import annotations

import pytest

from repro.core import NetSessionSystem, SystemConfig
from repro.core.peer import CacheEntry


class TestMapping:
    def test_peer_maps_to_local_region_cn(self, system):
        peer = system.create_peer()
        peer.boot()
        assert peer.cn.network_region == peer.network_region

    def test_falls_back_to_remote_cn_when_local_down(self, system):
        peer = system.create_peer()
        region = peer.network_region
        for cn in system.control.cns_by_region[region]:
            cn.alive = False
        peer.boot()
        assert peer.cn is not None
        assert peer.cn.network_region != region

    def test_no_cn_anywhere_returns_none(self, system):
        for cn in system.control.all_cns:
            cn.alive = False
        peer = system.create_peer()
        peer.boot()
        assert peer.cn is None
        assert peer.online  # still online, edge-only fallback


class TestCNFailure:
    def test_orphans_reconnect_elsewhere(self, system):
        peers = [system.create_peer() for _ in range(10)]
        for p in peers:
            p.boot()
        cn = peers[0].cn
        count = system.control.fail_cn(cn)
        assert count >= 1
        system.sim.run(until=system.sim.now + 60.0)
        for p in peers:
            if p.online:
                assert p.cn is not None
                assert p.cn.alive

    def test_connected_count_recovers_after_failure(self, system):
        peers = [system.create_peer() for _ in range(10)]
        for p in peers:
            p.boot()
        before = system.control.connected_peer_count()
        system.control.fail_cn(peers[0].cn)
        system.sim.run(until=system.sim.now + 120.0)
        assert system.control.connected_peer_count() == before

    def test_reconnect_is_rate_limited(self):
        config = SystemConfig().with_control_plane(reconnect_rate_limit=1.0)
        system = NetSessionSystem(config, seed=3)
        peers = [system.create_peer() for _ in range(30)]
        for p in peers:
            p.boot()
        # Force everyone onto one CN's region? Just fail each CN that has
        # connections and measure that reconnections are spread over time.
        target = max(system.control.all_cns, key=lambda c: len(c.connected))
        n = len(target.connected)
        if n < 2:
            pytest.skip("not enough peers on one CN")
        system.control.fail_cn(target)
        # With a 1/s rate limit and a small burst allowance, reconnections
        # must take at least n - burst seconds.
        pending = system.sim.pending_count()
        assert pending >= n


class TestDNFailure:
    def test_re_add_restores_directory(self, system, big_object):
        system.publish(big_object)
        country = system.world.by_code["DE"]
        seeders = []
        for _ in range(5):
            s = system.create_peer(country=country, uploads_enabled=True)
            s.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
            s.boot()
            seeders.append(s)
        region = seeders[0].network_region
        dn = system.control.dns_by_region[region][0]
        before = dn.copy_count(big_object.cid)
        assert before == 5
        answered = system.control.fail_dn(dn)
        assert answered >= 5
        assert dn.copy_count(big_object.cid) == 5

    def test_fail_without_recover_leaves_empty(self, system, big_object):
        system.publish(big_object)
        country = system.world.by_code["DE"]
        s = system.create_peer(country=country, uploads_enabled=True)
        s.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
        s.boot()
        dn = system.control.dns_by_region[s.network_region][0]
        system.control.fail_dn(dn, recover=False)
        assert not dn.alive
        assert dn.total_registrations() == 0


class TestExpirySweep:
    def test_stale_registrations_swept(self, system, big_object):
        system.publish(big_object)
        country = system.world.by_code["DE"]
        s = system.create_peer(country=country, uploads_enabled=True)
        s.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
        s.boot()
        # Kill the refresh loop to simulate a wedged client, then wait out
        # the TTL: the hourly sweep must drop the stale entry.
        s._refresh_event.cancel()
        ttl = system.config.control_plane.registration_ttl
        system.sim.run(until=ttl + 7200.0)
        assert system.control.total_registrations() == 0

    def test_refreshing_peer_stays_registered(self, system, big_object):
        system.publish(big_object)
        country = system.world.by_code["DE"]
        s = system.create_peer(country=country, uploads_enabled=True)
        s.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
        s.boot()
        ttl = system.config.control_plane.registration_ttl
        system.sim.run(until=ttl + 7200.0)
        assert system.control.total_registrations() == 1
