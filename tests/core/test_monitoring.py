"""Tests for the monitoring service."""

from __future__ import annotations

import pytest

from repro.core.control.monitoring import MonitoringService
from repro.core.control.stun import StunService
from repro.core.messages import CrashReport
from repro.net.nat import NATProfile, NATType


def report(t=0.0, kind="crash"):
    return CrashReport(guid="g", kind=kind, detail="d", timestamp=t)


class TestMonitoring:
    def test_counts_by_kind(self):
        service = MonitoringService()
        service.report(report(kind="crash"))
        service.report(report(kind="error"))
        service.report(report(kind="crash"))
        assert service.counts["crash"] == 2
        assert sum(service.counts.values()) == 3

    def test_recent_ring_bounded(self):
        service = MonitoringService(recent_capacity=5)
        for i in range(10):
            service.report(report(t=float(i)))
        assert len(service.recent) == 5
        assert service.recent[-1].timestamp == 9.0

    def test_alert_on_report_storm(self):
        service = MonitoringService(window=60.0, alert_threshold=10)
        for i in range(10):
            service.report(report(t=float(i)))
        assert len(service.alerts) == 1

    def test_no_alert_when_spread_out(self):
        service = MonitoringService(window=60.0, alert_threshold=10)
        for i in range(10):
            service.report(report(t=float(i * 120)))
        assert service.alerts == []

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            MonitoringService(window=0.0)

    def test_negative_cooldown_rejected(self):
        with pytest.raises(ValueError):
            MonitoringService(alert_cooldown=-1.0)

    def test_sustained_overload_realerts_after_cooldown(self):
        # Regression: the old implementation cleared the sliding window on
        # alert, so a sustained storm only ever produced the first alert.
        service = MonitoringService(window=60.0, alert_threshold=10,
                                    alert_cooldown=60.0)
        for i in range(300):
            service.report(report(t=float(i)))
        # Storm runs 0..299s at 1 report/s: alerts at t=9 and then every
        # cooldown period while the rate stays over the threshold.
        assert [t for t, _ in service.alerts] == [9.0, 69.0, 129.0, 189.0, 249.0]

    def test_no_alert_spam_within_cooldown(self):
        service = MonitoringService(window=60.0, alert_threshold=5,
                                    alert_cooldown=60.0)
        for i in range(50):
            service.report(report(t=float(i) * 0.1))
        assert len(service.alerts) == 1

    def test_window_still_slides_under_cooldown(self):
        # The window itself keeps sliding: once the storm stops, old
        # timestamps expire and a fresh burst re-alerts from a full count.
        service = MonitoringService(window=60.0, alert_threshold=10,
                                    alert_cooldown=0.0)
        for i in range(10):
            service.report(report(t=float(i)))
        for i in range(10):
            service.report(report(t=500.0 + float(i)))
        assert [t for t, _ in service.alerts] == [9.0, 509.0]


class TestStun:
    def test_probe_returns_reported_type_and_counts(self):
        stun = StunService()
        profile = NATProfile(NATType.OPEN, NATType.SYMMETRIC)
        assert stun.probe(profile) is NATType.SYMMETRIC
        stun.probe(profile)
        assert stun.probe_count == 2
