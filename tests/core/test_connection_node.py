"""Tests for the connection node (login, query, RE-ADD)."""

from __future__ import annotations

import pytest

from repro.core.peer import CacheEntry


@pytest.fixture
def online_seeder(system, big_object):
    system.publish(big_object)
    country = system.world.by_code["DE"]
    seeder = system.create_peer(country=country, uploads_enabled=True)
    seeder.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
    seeder.boot()
    return seeder


@pytest.fixture
def querier(system, big_object):
    country = system.world.by_code["DE"]
    peer = system.create_peer(country=country, uploads_enabled=True)
    peer.boot()
    return peer


class TestLogin:
    def test_login_writes_record(self, system, querier):
        records = [r for r in system.logstore.logins if r.guid == querier.guid]
        assert len(records) == 1
        assert records[0].ip == querier.ip
        assert records[0].uploads_enabled

    def test_login_registers_shareable_content(self, system, online_seeder,
                                                big_object):
        assert any(
            r.guid == online_seeder.guid and r.cid == big_object.cid
            for r in system.logstore.registrations
        )

    def test_login_runs_stun_probe(self, system, querier):
        assert system.control.stun.probe_count >= 1

    def test_logout_unregisters(self, system, online_seeder):
        online_seeder.go_offline()
        assert system.control.total_registrations() == 0


class TestQuery:
    def test_query_returns_local_seeder(self, system, online_seeder, querier,
                                        big_object):
        token = system.edge.authorize(querier.guid, big_object)
        resp = querier.cn.query(querier, big_object.cid, token)
        assert any(c.guid == online_seeder.guid for c in resp.candidates)

    def test_invalid_token_returns_nothing(self, system, online_seeder,
                                           querier, big_object):
        token = system.edge.authorize("someone-else", big_object)
        resp = querier.cn.query(querier, big_object.cid, token)
        assert resp.candidates == ()

    def test_exclude_filters_candidates(self, system, online_seeder, querier,
                                        big_object):
        token = system.edge.authorize(querier.guid, big_object)
        resp = querier.cn.query(
            querier, big_object.cid, token,
            exclude=frozenset({online_seeder.guid}))
        assert all(c.guid != online_seeder.guid for c in resp.candidates)

    def test_query_rotates_selected_peer(self, system, online_seeder, querier,
                                         big_object):
        # Register a second seeder so rotation is observable.
        country = system.world.by_code["DE"]
        other = system.create_peer(country=country, uploads_enabled=True)
        other.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
        other.boot()
        token = system.edge.authorize(querier.guid, big_object)
        cn = querier.cn
        dn = cn._dn_for(big_object.cid)
        order_before = [r.guid for r in dn.peers_for(big_object.cid)]
        cn.query(querier, big_object.cid, token)
        order_after = [r.guid for r in dn.peers_for(big_object.cid)]
        assert set(order_before) == set(order_after)

    def test_remote_search_widens_thin_directories(self, system, big_object,
                                                   querier):
        # Seeder in a different network region: local DN is empty.
        system.publish(big_object)
        far = system.world.by_code["JP"]
        seeder = system.create_peer(country=far, uploads_enabled=True)
        seeder.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
        seeder.boot()
        assert seeder.network_region != querier.network_region
        token = system.edge.authorize(querier.guid, big_object)
        resp = querier.cn.query(querier, big_object.cid, token)
        assert any(c.guid == seeder.guid for c in resp.candidates)

    def test_dead_cn_refuses_queries(self, system, querier, big_object):
        system.publish(big_object)
        token = system.edge.authorize(querier.guid, big_object)
        cn = querier.cn
        cn.fail()
        with pytest.raises(ConnectionError):
            cn.query(querier, big_object.cid, token)


class TestReAdd:
    def test_re_add_repopulates_dn(self, system, online_seeder, big_object):
        cn = online_seeder.cn
        dn = cn._dn_for(big_object.cid)
        dn.fail()
        dn.recover()
        assert dn.copy_count(big_object.cid) == 0
        answered = cn.broadcast_re_add()
        assert answered >= 1
        assert dn.copy_count(big_object.cid) == 1

    def test_re_add_skips_upload_disabled_peers(self, system, big_object):
        system.publish(big_object)
        country = system.world.by_code["DE"]
        peer = system.create_peer(country=country, uploads_enabled=False)
        peer.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
        peer.boot()
        cn = peer.cn
        answered = cn.broadcast_re_add()
        assert answered >= 1
        assert system.control.total_registrations() == 0


class TestFailure:
    def test_fail_returns_orphans_and_clears_state(self, system, querier):
        cn = querier.cn
        orphans = cn.fail()
        assert querier in orphans
        assert not cn.alive
        assert cn.connected == {}

    def test_login_to_dead_cn_raises(self, system, querier):
        cn = querier.cn
        cn.fail()
        with pytest.raises(ConnectionError):
            cn.login(querier, system.sim.now)
