"""Edge-case tests across the control plane and download engine."""

from __future__ import annotations

import pytest

from repro.core import ContentObject, NetSessionSystem, SystemConfig
from repro.core.peer import CacheEntry

HOUR = 3600.0
MB = 1024 * 1024


class TestRemoteSearchThreshold:
    def test_zero_threshold_disables_remote_search(self, big_object):
        config = SystemConfig().with_control_plane(remote_search_threshold=0)
        system = NetSessionSystem(config, seed=7)
        system.publish(big_object)
        far = system.create_peer(country=system.world.by_code["JP"],
                                 uploads_enabled=True)
        far.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
        far.boot()
        querier = system.create_peer(country=system.world.by_code["DE"],
                                     uploads_enabled=True)
        querier.boot()
        assert far.network_region != querier.network_region
        token = system.edge.authorize(querier.guid, big_object)
        resp = querier.cn.query(querier, big_object.cid, token)
        assert resp.candidates == ()


class TestConcurrentDownloads:
    def test_one_peer_two_objects_share_the_downlink(self, system, provider):
        a = ContentObject("a.bin", 120 * MB, provider)
        b = ContentObject("b.bin", 120 * MB, provider)
        system.publish(a)
        system.publish(b)
        peer = system.create_peer()
        peer.boot()
        sa = peer.start_download(a)
        sb = peer.start_download(b)
        system.run(until=12 * HOUR)
        assert sa.state == sb.state == "completed"
        # Sharing one downlink: both cannot have run at full line rate.
        line = (a.size) / peer.link.down_bps
        assert (sa.ended_at - sa.started_at) > line * 1.2 or \
               (sb.ended_at - sb.started_at) > line * 1.2

    def test_downloader_becomes_uploader_mid_swarm(self, system, big_object):
        """A leecher that finishes starts serving later arrivals."""
        system.publish(big_object)
        country = system.world.by_code["DE"]
        seeder = system.create_peer(country=country, uploads_enabled=True)
        seeder.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
        seeder.boot()
        first = system.create_peer(country=country, uploads_enabled=True)
        first.boot()
        s1 = first.start_download(big_object)
        system.run(until=6 * HOUR)
        assert s1.state == "completed"
        late = system.create_peer(country=country, uploads_enabled=True)
        late.boot()
        s2 = late.start_download(big_object)
        system.run(until=system.sim.now + 6 * HOUR)
        assert s2.state == "completed"
        # The finished leecher shows up among the late download's uploaders.
        assert first.guid in s2.per_uploader_bytes or \
               seeder.guid in s2.per_uploader_bytes


class TestObjectVersioning:
    def test_new_version_is_a_distinct_swarm(self, system, provider):
        v1 = ContentObject("game.bin", 60 * MB, provider, p2p_enabled=True)
        v2 = ContentObject("game.bin", 60 * MB, provider, p2p_enabled=True,
                           version=2)
        system.publish(v1)
        system.publish(v2)
        country = system.world.by_code["DE"]
        holder = system.create_peer(country=country, uploads_enabled=True)
        holder.cache[v1.cid] = CacheEntry(v1.cid, 0.0)
        holder.boot()
        downloader = system.create_peer(country=country, uploads_enabled=True)
        downloader.boot()
        session = downloader.start_download(v2)
        system.run(until=4 * HOUR)
        assert session.state == "completed"
        # v1's holder cannot have served v2 bytes (different cid/hashes).
        assert holder.guid not in session.per_uploader_bytes


class TestCacheEvictionDuringService:
    def test_evicted_object_no_longer_served(self, system, big_object):
        config = SystemConfig().with_client(cache_retention=1800.0)
        system = NetSessionSystem(config, seed=7)
        system.publish(big_object)
        country = system.world.by_code["DE"]
        holder = system.create_peer(country=country, uploads_enabled=True)
        holder.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
        holder.boot()
        holder.add_to_cache(big_object.cid)  # schedules eviction
        system.run(until=2 * 3600.0)
        assert not holder.has_complete(big_object.cid)
        assert system.control.total_registrations() == 0
