"""Tests for the DN directory (soft state, rotation, failure)."""

from __future__ import annotations

import pytest

from repro.core.control.database_node import DatabaseNode, PeerRegistration


def reg(guid, cid="c1", t=0.0):
    return PeerRegistration(
        guid=guid, cid=cid, asn=1, country_code="DE", region="Europe",
        nat_reported="open", uploads_enabled=True,
        registered_at=t, refreshed_at=t,
    )


@pytest.fixture
def dn():
    return DatabaseNode("dn-test", "eu", registration_ttl=100.0)


class TestRegistration:
    def test_register_returns_true_for_new(self, dn):
        assert dn.register(reg("a"))

    def test_register_refresh_returns_false(self, dn):
        dn.register(reg("a", t=0.0))
        assert not dn.register(reg("a", t=50.0))

    def test_refresh_updates_timestamp(self, dn):
        dn.register(reg("a", t=0.0))
        dn.register(reg("a", t=50.0))
        assert dn.peers_for("c1")[0].refreshed_at == 50.0

    def test_copy_count(self, dn):
        for g in "abc":
            dn.register(reg(g))
        assert dn.copy_count("c1") == 3
        assert dn.copy_count("other") == 0

    def test_unregister_single_entry(self, dn):
        dn.register(reg("a"))
        dn.register(reg("b"))
        dn.unregister("a", "c1")
        assert [r.guid for r in dn.peers_for("c1")] == ["b"]

    def test_unregister_last_entry_drops_cid(self, dn):
        dn.register(reg("a"))
        dn.unregister("a", "c1")
        assert "c1" not in dn.table

    def test_unregister_peer_across_objects(self, dn):
        dn.register(reg("a", cid="c1"))
        dn.register(reg("a", cid="c2"))
        dn.register(reg("b", cid="c1"))
        dn.unregister_peer("a")
        assert dn.copy_count("c1") == 1
        assert dn.copy_count("c2") == 0

    def test_total_registrations(self, dn):
        dn.register(reg("a", cid="c1"))
        dn.register(reg("a", cid="c2"))
        dn.register(reg("b", cid="c1"))
        assert dn.total_registrations() == 3

    def test_invalid_ttl_rejected(self):
        for ttl in (0.0, float("nan")):  # NaN fails every comparison
            with pytest.raises(ValueError):
                DatabaseNode("x", "eu", registration_ttl=ttl)


class TestSoftState:
    def test_expire_drops_stale_entries(self, dn):
        dn.register(reg("old", t=0.0))
        dn.register(reg("new", t=90.0))
        dropped = dn.expire(now=150.0)
        assert dropped == 1
        assert [r.guid for r in dn.peers_for("c1")] == ["new"]

    def test_expire_keeps_refreshed_entries(self, dn):
        dn.register(reg("a", t=0.0))
        dn.register(reg("a", t=90.0))  # refresh
        assert dn.expire(now=150.0) == 0

    def test_expire_empty_table(self, dn):
        assert dn.expire(now=1000.0) == 0


class TestRotation:
    def test_rotate_moves_to_end(self, dn):
        for g in "abc":
            dn.register(reg(g))
        dn.rotate_to_end("c1", "a")
        assert [r.guid for r in dn.peers_for("c1")] == ["b", "c", "a"]

    def test_rotate_unknown_guid_noop(self, dn):
        dn.register(reg("a"))
        dn.rotate_to_end("c1", "zzz")
        assert [r.guid for r in dn.peers_for("c1")] == ["a"]


class TestFailure:
    def test_fail_clears_soft_state(self, dn):
        dn.register(reg("a"))
        dn.fail()
        assert not dn.alive
        assert dn.total_registrations() == 0

    def test_failed_dn_rejects_registrations(self, dn):
        dn.fail()
        assert not dn.register(reg("a"))

    def test_recover_accepts_registrations_again(self, dn):
        dn.fail()
        dn.recover()
        assert dn.register(reg("a"))
