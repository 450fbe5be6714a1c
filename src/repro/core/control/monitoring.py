"""Monitoring nodes: operational telemetry (paper §3.6, §3.8).

"Peers upload information about their operation and about problems, such as
application crash reports, to these nodes.  Processing their logs helps to
monitor the network in real-time, to identify problems, and to troubleshoot
specific user issues."  §3.8 adds that download/upload performance is
constantly monitored with automated alerts for large-scale problems.

We keep per-kind counters, a bounded recent-report ring, and a trivial
alerting rule (report rate over a sliding window) — enough to exercise the
reporting code path from the peers and to test the §3.8 claims.
"""

from __future__ import annotations

from collections import Counter, deque

from repro.core.messages import CrashReport

__all__ = ["MonitoringService"]


class MonitoringService:
    """Collects crash/error reports and raises rate alerts."""

    def __init__(self, *, window: float = 3600.0, alert_threshold: int = 1000,
                 recent_capacity: int = 1000, alert_cooldown: float | None = None):
        if window <= 0:
            raise ValueError("monitoring window must be positive")
        if alert_cooldown is not None and alert_cooldown < 0:
            raise ValueError("alert cooldown must be non-negative")
        self.window = window
        self.alert_threshold = alert_threshold
        #: Minimum seconds between alerts while the rate stays over the
        #: threshold; defaults to the window length.
        self.alert_cooldown = window if alert_cooldown is None else alert_cooldown
        self.counts: Counter[str] = Counter()
        self.recent: deque[CrashReport] = deque(maxlen=recent_capacity)
        self._window_times: deque[float] = deque()
        self._last_alert_at: float | None = None
        self.alerts: list[tuple[float, str]] = []

    def report(self, report: CrashReport) -> None:
        """Ingest one report; may trigger an alert.

        The sliding window is *kept* across alerts so a sustained overload
        keeps re-alerting; the cooldown is what spaces the alerts out.
        (Clearing the window on alert — the old behaviour — silently
        suppressed every follow-up alert until the window refilled from
        zero, hiding exactly the large-scale problems §3.8 monitors for.)
        """
        self.counts[report.kind] += 1
        self.recent.append(report)
        self._window_times.append(report.timestamp)
        cutoff = report.timestamp - self.window
        while self._window_times and self._window_times[0] < cutoff:
            self._window_times.popleft()
        if len(self._window_times) >= self.alert_threshold:
            in_cooldown = (
                self._last_alert_at is not None
                and report.timestamp - self._last_alert_at < self.alert_cooldown
            )
            if not in_cooldown:
                self.alerts.append(
                    (report.timestamp, f"report rate >= {self.alert_threshold}/window")
                )
                self._last_alert_at = report.timestamp
