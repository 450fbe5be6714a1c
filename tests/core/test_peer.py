"""Tests for the NetSession Interface client (PeerNode)."""

from __future__ import annotations

import pytest

from repro.core import NetSessionSystem
from repro.core.peer import CacheEntry


@pytest.fixture
def peer(system):
    return system.create_peer(uploads_enabled=True)


class TestLifecycle:
    def test_starts_offline(self, peer):
        assert not peer.online
        assert peer.ip == ""

    def test_boot_goes_online_with_ip_and_cn(self, peer, system):
        peer.boot()
        assert peer.online
        assert peer.ip
        assert peer.cn is not None
        assert peer.guid in peer.cn.connected

    def test_boot_pushes_secondary_guid(self, peer):
        peer.boot()
        assert len(peer.secondary_history) == 1
        first = peer.secondary_history[0]
        peer.go_offline()
        peer.boot()
        assert peer.secondary_history[0] != first
        assert list(peer.secondary_history)[1] == first

    def test_secondary_history_caps_at_five(self, peer):
        for _ in range(8):
            peer.boot()
            peer.go_offline()
        assert len(peer.secondary_history) == 5

    def test_boot_while_online_is_a_restart(self, peer, system):
        peer.boot()
        logins_before = len(system.logstore.logins)
        peer.boot()
        assert peer.online
        assert len(system.logstore.logins) == logins_before + 1
        assert peer.boot_count == 2

    def test_go_offline_clears_connection(self, peer):
        peer.boot()
        cn = peer.cn
        peer.go_offline()
        assert not peer.online
        assert peer.cn is None
        assert peer.guid not in cn.connected

    def test_new_ip_per_session(self, peer):
        peer.boot()
        ip1 = peer.ip
        peer.go_offline()
        peer.go_online()
        assert peer.ip != ip1

    def test_each_login_recorded(self, peer, system):
        peer.boot()
        peer.go_offline()
        peer.go_online()
        records = [r for r in system.logstore.logins if r.guid == peer.guid]
        assert len(records) == 2

    def test_version_string_encodes_bundle(self, system, provider):
        peer = system.create_peer(installed_from=provider)
        assert f"cp{provider.cp_code}" in peer.software_version


class TestCache:
    def test_add_to_cache_registers_when_uploads_enabled(self, peer, system,
                                                         big_object):
        system.publish(big_object)
        peer.boot()
        peer.add_to_cache(big_object.cid)
        assert peer.has_complete(big_object.cid)
        assert any(r.guid == peer.guid for r in system.logstore.registrations)

    def test_cache_expires_after_retention(self, peer, system, big_object):
        system.publish(big_object)
        peer.boot()
        peer.add_to_cache(big_object.cid)
        system.sim.run(until=system.config.client.cache_retention + 10.0)
        assert not peer.has_complete(big_object.cid)

    def test_disabled_uploads_do_not_register(self, system, big_object):
        peer = system.create_peer(uploads_enabled=False)
        system.publish(big_object)
        peer.boot()
        peer.add_to_cache(big_object.cid)
        assert not any(r.guid == peer.guid for r in system.logstore.registrations)

    def test_shareable_cids_excludes_exhausted_budget(self, peer, system,
                                                      big_object):
        system.publish(big_object)
        peer.boot()
        peer.add_to_cache(big_object.cid)
        peer.uploads_done[big_object.cid] = (
            system.config.client.max_uploads_per_object)
        assert big_object.cid not in peer.shareable_cids()


class TestUploadSlots:
    def test_grant_within_limits(self, peer, system, big_object):
        system.publish(big_object)
        peer.boot()
        peer.add_to_cache(big_object.cid)
        assert peer.try_grant_upload(big_object.cid)
        assert peer.active_upload_count == 1

    def test_grant_denied_without_copy(self, peer, system, big_object):
        peer.boot()
        assert not peer.try_grant_upload(big_object.cid)

    def test_grant_denied_when_offline(self, peer, system, big_object):
        peer.cache[big_object.cid] = CacheEntry(big_object.cid, 0.0)
        assert not peer.try_grant_upload(big_object.cid)

    def test_connection_limit_enforced(self, peer, system, big_object):
        system.publish(big_object)
        peer.boot()
        peer.add_to_cache(big_object.cid)
        limit = system.config.client.max_upload_connections
        for _ in range(limit):
            assert peer.try_grant_upload(big_object.cid)
        assert not peer.try_grant_upload(big_object.cid)

    def test_release_frees_slot(self, peer, system, big_object):
        system.publish(big_object)
        peer.boot()
        peer.add_to_cache(big_object.cid)
        limit = system.config.client.max_upload_connections
        for _ in range(limit):
            peer.try_grant_upload(big_object.cid)
        peer.release_upload()
        assert peer.try_grant_upload(big_object.cid)

    def test_per_object_budget_enforced(self, peer, system, big_object):
        system.publish(big_object)
        peer.boot()
        peer.add_to_cache(big_object.cid)
        budget = system.config.client.max_uploads_per_object
        granted = 0
        for _ in range(budget + 10):
            if peer.try_grant_upload(big_object.cid):
                granted += 1
                peer.release_upload()
        assert granted == budget

    def test_upload_rate_cap_reflects_busy_link(self, peer, system):
        cfg = system.config.client
        normal = peer.upload_rate_cap()
        peer.set_link_busy(True)
        backoff = peer.upload_rate_cap()
        assert backoff == pytest.approx(
            normal * cfg.backoff_rate_fraction / cfg.upload_rate_fraction)
        peer.set_link_busy(False)
        assert peer.upload_rate_cap() == pytest.approx(normal)


class TestSettings:
    def test_disable_unregisters_content(self, peer, system, big_object):
        system.publish(big_object)
        peer.boot()
        peer.add_to_cache(big_object.cid)
        dn = system.control.all_dns[0]
        total_before = system.control.total_registrations()
        assert total_before == 1
        peer.set_uploads_enabled(False)
        assert system.control.total_registrations() == 0

    def test_reenable_reregisters(self, peer, system, big_object):
        system.publish(big_object)
        peer.boot()
        peer.add_to_cache(big_object.cid)
        peer.set_uploads_enabled(False)
        peer.set_uploads_enabled(True)
        assert system.control.total_registrations() == 1

    def test_noop_toggle_not_counted(self, peer):
        peer.set_uploads_enabled(peer.uploads_enabled)
        assert peer.setting_changes == 0

    def test_toggle_while_offline_changes_pref_only(self, system):
        peer = system.create_peer(uploads_enabled=True)
        peer.set_uploads_enabled(False)
        assert not peer.uploads_enabled
        assert peer.setting_changes == 1


class TestMobility:
    def test_move_changes_location_and_ip(self, peer, system):
        peer.boot()
        old_ip = peer.ip
        target = system.world.by_code["FR"]
        asys = system.topology.eyeball_ases("FR")[0]
        peer.move_to(target, target.cities[0], asys)
        assert peer.country_code == "FR"
        assert peer.online
        assert peer.ip != old_ip

    def test_move_while_offline_stays_offline(self, peer, system):
        target = system.world.by_code["FR"]
        asys = system.topology.eyeball_ases("FR")[0]
        peer.move_to(target, target.cities[0], asys)
        assert not peer.online

    def test_move_produces_two_login_records(self, peer, system):
        peer.boot()
        target = system.world.by_code["FR"]
        asys = system.topology.eyeball_ases("FR")[0]
        peer.move_to(target, target.cities[0], asys)
        records = [r for r in system.logstore.logins if r.guid == peer.guid]
        assert len(records) == 2


class TestCloning:
    def test_snapshot_restore_roundtrip(self, peer):
        peer.boot()
        snap = peer.snapshot_identity()
        peer.go_offline()
        peer.boot()
        newest = peer.secondary_history[0]
        peer.restore_identity(snap)
        assert tuple(peer.secondary_history) == snap.secondary_history
        assert newest not in peer.secondary_history

    def test_restore_preserves_guid(self, peer):
        snap = peer.snapshot_identity()
        peer.restore_identity(snap)
        assert peer.guid == snap.guid

    def test_clone_to_second_machine(self, system, peer):
        peer.boot()
        snap = peer.snapshot_identity()
        clone = system.create_peer(guid=snap.guid)
        clone.restore_identity(snap)
        assert clone.guid == peer.guid


class TestReporting:

    def test_start_download_requires_online(self, peer, system, big_object):
        system.publish(big_object)
        with pytest.raises(RuntimeError):
            peer.start_download(big_object)
