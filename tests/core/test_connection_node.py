"""Tests for the connection node (login, query, RE-ADD)."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.adversary.reputation import ReputationEngine
from repro.core.control.database_node import PeerRegistration
from repro.core.peer import CacheEntry
from repro.core.selection import (
    DeviceTierStage, QueryContext, compose_stages, select_peers,
)
from repro.core.system import VodStats
from repro.vod.policy import make_policy


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


# ---------------------------------------------------------- candidate stages

VOD_CID = "aaaa1111" * 8


def _reg(guid, *, asn=100, device_class="desktop", cid=VOD_CID):
    return PeerRegistration(
        guid=guid, cid=cid, asn=asn, country_code="DE", region="Europe",
        nat_reported="open", uploads_enabled=True, registered_at=0.0,
        refreshed_at=0.0, device_class=device_class,
    )


def _query(asn=100):
    return QueryContext(guid="viewer", asn=asn, country_code="DE",
                        region="Europe", nat_reported="open")


def _stages():
    """One stage of each kind, in declared order."""
    return (DeviceTierStage({"smartrouter": 1.0, "desktop": 0.0}),
            ReputationEngine(seed=1),
            make_policy("isp_local", [VOD_CID], counters=VodStats()))


class TestCandidateStages:
    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_stage_order_is_declared_not_installed(self, system, order):
        stages = _stages()
        for i in order:
            system.control.install_stage(stages[i])
        assert system.control.stages == stages

    def test_second_install_adds_no_stage(self, system):
        stages = _stages()
        for stage in stages + stages:
            system.control.install_stage(stage)
        assert system.control.stages == stages

    def test_unknown_stage_kind_rejected(self, system):
        class Odd(DeviceTierStage):
            kind = "oracle"

        with pytest.raises(ValueError, match="oracle"):
            system.control.install_stage(Odd({}))

    def test_class_weight_dominates_and_score_breaks_ties(self, system):
        device, engine, _ = _stages()
        system.control.install_stage(engine)
        system.control.install_stage(device)
        engine.observe("desk-hero", 0.0, delivered_bytes=50 * 1024 * 1024)
        engine.observe("router-hero", 0.0, delivered_bytes=5 * 1024 * 1024)
        regs = [_reg("desk-hero"), _reg("router-zero", device_class="smartrouter"),
                _reg("router-hero", device_class="smartrouter")]
        candidate_filter, rank_key = compose_stages(system.control.stages, 0.0)
        chosen = select_peers(regs, _query(), 3, random.Random(0),
                              diversity_probability=0.0,
                              candidate_filter=candidate_filter,
                              rank_key=rank_key)
        assert [r.guid for r in chosen] == [
            "router-hero", "router-zero", "desk-hero"]

    def test_reputation_refusal_is_not_counted_as_policy_filtered(self,
                                                                  system):
        _, engine, policy = _stages()
        system.control.install_stage(policy)
        system.control.install_stage(engine)
        engine.observe("villain", 0.0, corrupted_pieces=2)
        assert engine.is_quarantined("villain", 0.0)
        candidate_filter, _ = compose_stages(system.control.stages, 0.0)
        assert not candidate_filter(_query(), _reg("villain", asn=200))
        assert policy.counters.policy_filtered == 0
        assert not candidate_filter(_query(), _reg("stranger", asn=200))
        assert policy.counters.policy_filtered == 1

    def test_policy_stage_vetoes_remote_search(self, system, big_object,
                                               querier):
        # The remote-search case above, with isp_local governing the cid.
        system.publish(big_object)
        seeder = system.create_peer(country=system.world.by_code["JP"],
                                    uploads_enabled=True)
        seeder.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
        seeder.boot()
        policy = make_policy("isp_local", [big_object.cid])
        system.control.install_stage(policy)
        widened = []
        real = system.control.remote_peers_for
        system.control.remote_peers_for = lambda *a: widened.append(a) or real(*a)
        token = system.edge.authorize(querier.guid, big_object)
        resp = querier.cn.query(querier, big_object.cid, token)
        assert resp.candidates == ()
        assert widened == []
