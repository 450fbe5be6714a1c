"""Tests for the STUN probe accounting that the control plane reports."""

from __future__ import annotations

from repro.core.control.stun import StunService
from repro.net.nat import NATProfile, NATType


class TestStun:
    def test_probe_returns_reported_type_and_counts(self):
        stun = StunService()
        profile = NATProfile(NATType.OPEN, NATType.SYMMETRIC)
        assert stun.probe(profile) is NATType.SYMMETRIC
        stun.probe(profile)
        assert stun.probe_count == 2
