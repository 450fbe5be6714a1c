"""Serving-policy unit behaviour: admits, widening, seeding, off-peak gate."""

from __future__ import annotations

import random

import pytest

from repro.core.control.database_node import PeerRegistration
from repro.core.selection import QueryContext
from repro.core.system import VodStats
from repro.vod import (
    POLICY_NAMES, IspLocalOnlyPolicy, OffPeakPlacer, UnrestrictedPolicy,
    VodConfig, make_policy,
)

VOD_CID = "aaaa1111" * 8
OTHER_CID = "bbbb2222" * 8


def _query(asn=100, lan_id=""):
    return QueryContext(guid="viewer", asn=asn, country_code="DE",
                        region="Europe", nat_reported="open", lan_id=lan_id)


def _reg(cid=VOD_CID, asn=100, lan_id=""):
    return PeerRegistration(
        guid="holder", cid=cid, asn=asn, country_code="DE", region="Europe",
        nat_reported="open", uploads_enabled=True, registered_at=0.0,
        refreshed_at=0.0, lan_id=lan_id,
    )


class TestFactory:
    def test_every_registered_name_builds(self):
        for name in POLICY_NAMES:
            policy = make_policy(name, [VOD_CID])
            assert policy.name == name
            assert VOD_CID in policy.vod_cids

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown serving policy"):
            make_policy("clairvoyant", [VOD_CID])


class TestUnrestricted:
    def test_admits_everyone_everywhere(self):
        policy = UnrestrictedPolicy([VOD_CID])
        assert policy.admits(_query(), _reg(asn=999))
        assert policy.allow_widening(_query(), VOD_CID)


class TestIspLocalOnly:
    def test_same_as_admitted(self):
        policy = IspLocalOnlyPolicy([VOD_CID])
        assert policy.admits(_query(asn=100), _reg(asn=100))

    def test_foreign_as_filtered_and_counted(self):
        counters = VodStats()
        policy = IspLocalOnlyPolicy([VOD_CID], counters=counters)
        assert not policy.admits(_query(asn=100), _reg(asn=200))
        assert counters.policy_filtered == 1

    def test_same_lan_beats_the_as_check(self):
        policy = IspLocalOnlyPolicy([VOD_CID])
        assert policy.admits(_query(asn=100, lan_id="office-7"),
                             _reg(asn=200, lan_id="office-7"))

    def test_non_vod_cids_pass_through(self):
        counters = VodStats()
        policy = IspLocalOnlyPolicy([VOD_CID], counters=counters)
        assert policy.admits(_query(asn=100), _reg(cid=OTHER_CID, asn=200))
        assert policy.allow_widening(_query(), OTHER_CID)
        assert counters.policy_filtered == 0

    def test_widening_vetoed_for_vod(self):
        policy = IspLocalOnlyPolicy([VOD_CID])
        assert not policy.allow_widening(_query(), VOD_CID)


class TestOffPeakPlacer:
    def _placer(self, system, window):
        from repro.core.placement import PlacementConfig

        return OffPeakPlacer(system, [], PlacementConfig(), window=window)

    def test_only_runs_inside_the_window(self, system):
        placer = self._placer(system, (2.0, 7.0))
        system.sim.run(until=4 * 3600.0)   # 04:00
        assert placer._should_run()
        system.sim.run(until=12 * 3600.0)  # noon
        assert not placer._should_run()

    def test_window_wraps_midnight(self, system):
        placer = self._placer(system, (23.0, 2.0))
        system.sim.run(until=23.5 * 3600.0)
        assert placer._should_run()
        system.sim.run(until=25 * 3600.0)  # 01:00 next day
        assert placer._should_run()
        system.sim.run(until=36 * 3600.0)  # noon next day
        assert not placer._should_run()

    def test_gated_tick_does_nothing(self, system):
        placer = self._placer(system, (2.0, 7.0))
        system.sim.run(until=12 * 3600.0)
        assert placer.tick() == 0


class TestPopularitySeeding:
    def test_pre_seed_plants_decay_weighted_copies(self, system):
        from repro.vod.catalog import build_vod_catalog

        config = VodConfig(n_series=3, episodes_per_series=4,
                           seed_copies_per_episode=2.0)
        catalog = build_vod_catalog(random.Random("t"), config)
        system.register_provider(catalog.provider)
        for ep in catalog.episodes():
            system.publish(ep.obj)

        class Pop:
            peers = [system.create_peer(uploads_enabled=True)
                     for _ in range(20)]

            @classmethod
            def iter_peers(cls):
                return iter(cls.peers)

        counters = VodStats()
        policy = make_policy("popularity_seeding", [
            ep.obj.cid for ep in catalog.episodes()], counters=counters)
        seeded = policy.pre_seed(system, Pop, catalog, config,
                                 random.Random("s"))
        assert seeded > 0
        assert counters.copies_seeded == seeded
        held = sum(
            1 for p in Pop.peers for ep in catalog.episodes()
            if p.has_complete(ep.obj.cid)
        )
        assert held == seeded

    def test_pre_seed_noop_without_budget(self, system):
        from repro.vod.catalog import build_vod_catalog

        config = VodConfig(seed_copies_per_episode=0.0)
        catalog = build_vod_catalog(random.Random("t"), config)

        class Pop:
            peers = []

            @classmethod
            def iter_peers(cls):
                return iter(cls.peers)

        policy = make_policy("popularity_seeding", [])
        assert policy.pre_seed(system, Pop, catalog, config,
                               random.Random("s")) == 0


class TestInstall:
    def test_install_reaches_every_cn(self, system):
        policy = make_policy("isp_local", [VOD_CID])
        policy.install(system)
        for cn in system.control.all_cns:
            assert cn.serving_policy is policy
