"""Tests for the NetSessionSystem facade."""

from __future__ import annotations

import pytest

from repro.core import ContentObject, ContentProvider, NetSessionSystem


class TestAssembly:
    def test_default_construction(self):
        system = NetSessionSystem(seed=1)
        assert system.control.all_cns
        assert system.control.all_dns
        assert system.edge.servers
        assert len(system.world.countries) > 30

    def test_deterministic_given_seed(self):
        a = NetSessionSystem(seed=5)
        b = NetSessionSystem(seed=5)
        pa = a.create_peer()
        pb = b.create_peer()
        assert pa.guid == pb.guid
        assert pa.country_code == pb.country_code
        assert pa.asn == pb.asn

    def test_different_seeds_differ(self):
        a = NetSessionSystem(seed=5).create_peer()
        b = NetSessionSystem(seed=6).create_peer()
        assert a.guid != b.guid

    def test_publish_registers_provider(self, system, provider, small_object):
        system.publish(small_object)
        assert provider.cp_code in system.providers
        assert system.edge.lookup(small_object.cid) is small_object


class TestPeerCreation:
    def test_upload_default_from_provider_mix(self):
        system = NetSessionSystem(seed=3)
        never = ContentProvider(cp_code=1, name="never", upload_default_rate=0.0)
        always = ContentProvider(cp_code=2, name="always", upload_default_rate=1.0)
        offs = [system.create_peer(installed_from=never) for _ in range(20)]
        ons = [system.create_peer(installed_from=always) for _ in range(20)]
        assert not any(p.uploads_enabled for p in offs)
        assert all(p.uploads_enabled for p in ons)

    def test_explicit_uploads_enabled_overrides(self, system, provider):
        peer = system.create_peer(uploads_enabled=False, installed_from=provider)
        assert not peer.uploads_enabled

    def test_country_pinning(self, system):
        jp = system.world.by_code["JP"]
        peer = system.create_peer(country=jp)
        assert peer.country_code == "JP"
        assert peer.asys.country_code == "JP"

    def test_peers_indexed_by_guid(self, system):
        peer = system.create_peer()
        assert system.peer_by_guid[peer.guid] is peer


class TestRunAndFinalize:
    def test_online_peer_count(self, system):
        peers = [system.create_peer() for _ in range(4)]
        for p in peers[:3]:
            p.boot()
        assert system.online_peer_count() == 3

    def test_finalize_aborts_open_sessions(self, system, big_object, provider):
        system.publish(big_object)
        peer = system.create_peer(uploads_enabled=True)
        peer.boot()
        session = peer.start_download(big_object)
        system.run(until=5.0)
        count = system.finalize_open_downloads()
        assert count == 1
        assert session.state == "aborted"

    def test_finalize_with_nothing_open(self, system):
        assert system.finalize_open_downloads() == 0
