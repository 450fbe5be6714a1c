"""Tests for the control-plane message vocabulary."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.messages import PeerCandidate, PeerQueryResponse, UsageReport

REPORT = UsageReport(guid="g", cid="c", cp_code=1, started_at=0.0,
                     ended_at=1.0, claimed_edge_bytes=0, claimed_peer_bytes=0)


class TestImmutability:
    @pytest.mark.parametrize("message", [
        PeerCandidate(guid="g", ip="i", asn=1, nat_type="open"),
        PeerQueryResponse(cid="c", candidates=()),
        REPORT,
    ])
    def test_messages_are_frozen(self, message):
        field = dataclasses.fields(message)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(message, field, "mutated")


class TestDefaults:
    def test_usage_report_outcome_default(self):
        assert REPORT.outcome == "completed"
        assert REPORT.failure_class is None
        assert REPORT.per_uploader_bytes == {}
