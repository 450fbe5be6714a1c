"""Tests for reliable accounting and attack filtering."""

from __future__ import annotations

import random

import pytest

from repro.core.accounting import AccountingService
from repro.core.content import ContentObject, ContentProvider
from repro.core.edge import EdgeNetwork
from repro.core.messages import UsageReport


@pytest.fixture
def setup():
    edge = EdgeNetwork(["eu"], random.Random(1))
    provider = ContentProvider(cp_code=7, name="P")
    obj = ContentObject("f.bin", 100_000_000, provider, p2p_enabled=True)
    edge.publish(obj)
    service = AccountingService(edge)
    return edge, obj, service


def report(obj, guid="g1", edge_bytes=60_000_000, peer_bytes=40_000_000,
           per_uploader=None, outcome="completed"):
    return UsageReport(
        guid=guid, cid=obj.cid, cp_code=obj.provider.cp_code,
        started_at=0.0, ended_at=100.0,
        claimed_edge_bytes=edge_bytes, claimed_peer_bytes=peer_bytes,
        per_uploader_bytes=per_uploader if per_uploader is not None
        else {"u1": peer_bytes},
        outcome=outcome,
    )


class TestValidation:
    def test_honest_report_accepted(self, setup):
        edge, obj, service = setup
        edge.servers[0].record_served("g1", obj.cid, 60_000_000)
        assert service.ingest(report(obj))
        assert service.rejected == []

    def test_inflated_edge_bytes_rejected(self, setup):
        edge, obj, service = setup
        edge.servers[0].record_served("g1", obj.cid, 10_000_000)
        assert not service.ingest(report(obj, edge_bytes=60_000_000))
        assert service.rejected[0][1] == "edge-mismatch"

    def test_underclaimed_edge_bytes_rejected(self, setup):
        edge, obj, service = setup
        edge.servers[0].record_served("g1", obj.cid, 60_000_000)
        assert not service.ingest(report(obj, edge_bytes=1_000_000))

    def test_small_skew_tolerated(self, setup):
        edge, obj, service = setup
        edge.servers[0].record_served("g1", obj.cid, 60_000_000)
        assert service.ingest(report(obj, edge_bytes=int(60_000_000 * 1.01)))

    def test_negative_bytes_rejected(self, setup):
        edge, obj, service = setup
        assert not service.ingest(report(obj, edge_bytes=-5))
        assert service.rejected[0][1] == "negative"

    def test_oversized_claim_rejected(self, setup):
        edge, obj, service = setup
        edge.servers[0].record_served("g1", obj.cid, 60_000_000)
        assert not service.ingest(
            report(obj, peer_bytes=200_000_000,
                   per_uploader={"u1": 200_000_000}))

    def test_per_uploader_exceeding_peer_total_rejected(self, setup):
        edge, obj, service = setup
        edge.servers[0].record_served("g1", obj.cid, 60_000_000)
        assert not service.ingest(
            report(obj, peer_bytes=1_000, per_uploader={"u1": 40_000_000}))

    def test_unknown_object_rejected(self, setup):
        edge, obj, service = setup
        other = ContentObject("ghost.bin", 10, obj.provider)
        assert not service.ingest(report(other, edge_bytes=0, peer_bytes=0,
                                         per_uploader={}))


class TestBilling:
    def test_billing_accumulates_per_provider(self, setup):
        edge, obj, service = setup
        edge.servers[0].record_served("g1", obj.cid, 60_000_000)
        edge.servers[0].record_served("g2", obj.cid, 60_000_000)
        service.ingest(report(obj, guid="g1"))
        service.ingest(report(obj, guid="g2"))
        summary = service.provider_report(obj.provider.cp_code)
        assert summary.completed_downloads == 2
        assert summary.edge_bytes == 120_000_000
        assert summary.peer_bytes == 80_000_000
        assert summary.offload_fraction == pytest.approx(80 / 200)

    def test_outcome_classification(self, setup):
        edge, obj, service = setup
        edge.servers[0].record_served("g1", obj.cid, 60_000_000)
        service.ingest(report(obj, outcome="failed"))
        summary = service.provider_report(obj.provider.cp_code)
        assert summary.failed_downloads == 1
        assert summary.completed_downloads == 0

    def test_upload_credit_tracked(self, setup):
        edge, obj, service = setup
        edge.servers[0].record_served("g1", obj.cid, 60_000_000)
        service.ingest(report(obj, per_uploader={"u1": 30_000_000,
                                                 "u2": 10_000_000}))
        assert service.upload_credit["u1"] == 30_000_000
        assert service.upload_credit["u2"] == 10_000_000

    def test_rejected_reports_not_billed(self, setup):
        edge, obj, service = setup
        service.ingest(report(obj, edge_bytes=60_000_000))  # no edge record
        summary = service.provider_report(obj.provider.cp_code)
        assert summary.total_bytes == 0

    def test_empty_provider_report(self, setup):
        _edge, _obj, service = setup
        summary = service.provider_report(999)
        assert summary.total_bytes == 0
        assert summary.offload_fraction == 0.0
