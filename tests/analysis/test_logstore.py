"""Tests for the log store."""

from __future__ import annotations

from repro.analysis.logstore import LogStore
from repro.analysis.records import DownloadRecord, LoginRecord, RegistrationRecord


def dl(guid="g1", cid="c1", url="u1", outcome="completed", ip="1.1.1.1", **kw):
    defaults = dict(cp_code=1, size=100, started_at=0.0, ended_at=10.0,
                    edge_bytes=60, peer_bytes=40, p2p_enabled=True)
    defaults.update(kw)
    return DownloadRecord(guid=guid, url=url, cid=cid, outcome=outcome,
                          ip=ip, **defaults)


def login(guid="g1", ip="1.1.1.1", t=0.0):
    return LoginRecord(guid=guid, ip=ip, timestamp=t,
                       software_version="v", uploads_enabled=True)


class TestStore:
    def test_entry_count_spans_all_types(self):
        store = LogStore()
        store.add_download(dl())
        store.add_login(login())
        store.add_registration(RegistrationRecord("g1", "c1", 0.0, "eu"))
        assert store.entry_count() == 3

    def test_distinct_guids_across_types(self):
        store = LogStore()
        store.add_download(dl(guid="a"))
        store.add_login(login(guid="b"))
        store.add_registration(RegistrationRecord("c", "c1", 0.0, "eu"))
        assert store.distinct_guids() == {"a", "b", "c"}

    def test_distinct_ips_ignores_empty(self):
        store = LogStore()
        store.add_download(dl(ip=""))
        store.add_login(login(ip="2.2.2.2"))
        assert store.distinct_ips() == {"2.2.2.2"}

    def test_groupings_are_complete(self):
        store = LogStore()
        store.add_registration(RegistrationRecord("g1", "c1", 0.0, "eu"))
        store.add_registration(RegistrationRecord("g2", "c1", 0.0, "eu"))
        store.add_registration(RegistrationRecord("g1", "c2", 0.0, "eu"))
        groups = store.registrations_by_cid()
        assert len(groups["c1"]) == 2
        assert len(groups["c2"]) == 1

    def test_index_invalidated_on_append(self):
        store = LogStore()
        store.add_registration(RegistrationRecord("g1", "c1", 0.0, "eu"))
        assert len(store.registrations_by_cid()["c1"]) == 1
        store.add_registration(RegistrationRecord("g2", "c1", 0.0, "eu"))
        assert len(store.registrations_by_cid()["c1"]) == 2

    def test_logins_by_guid_preserves_order(self):
        store = LogStore()
        store.add_login(login(t=3.0))
        store.add_login(login(t=1.0))
        times = [r.timestamp for r in store.logins_by_guid()["g1"]]
        assert times == [3.0, 1.0]  # append order, not sorted


class TestRecordProperties:
    def test_peer_fraction(self):
        rec = dl(edge_bytes=25, peer_bytes=75)
        assert rec.peer_fraction == 0.75

    def test_peer_fraction_zero_bytes(self):
        rec = dl(edge_bytes=0, peer_bytes=0)
        assert rec.peer_fraction == 0.0

    def test_average_speed(self):
        rec = dl(edge_bytes=500, peer_bytes=500, started_at=0.0, ended_at=10.0)
        assert rec.average_speed_bps() == 100.0

    def test_average_speed_zero_duration(self):
        rec = dl(started_at=5.0, ended_at=5.0)
        assert rec.average_speed_bps() == 0.0
