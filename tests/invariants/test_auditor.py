"""Tests for the audit layer's machinery: modes, cadence, dedup, stats."""

from __future__ import annotations

import pytest

from repro.core import NetSessionSystem
from repro.core.config import InvariantConfig, SystemConfig
from repro.invariants import (
    CHECKERS, InvariantViolation, InvariantViolationError,
)


def make_system(mode="observe", **inv):
    config = SystemConfig(invariants=InvariantConfig(mode=mode, **inv))
    return NetSessionSystem(config, seed=7)


class TestConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            InvariantConfig(mode="aggressive")
        with pytest.raises(ValueError):
            InvariantConfig(every_events=0)
        with pytest.raises(ValueError):
            InvariantConfig(max_violations=0)

    def test_auto_resolves_via_env(self, monkeypatch):
        cfg = InvariantConfig()
        monkeypatch.delenv("REPRO_INVARIANTS", raising=False)
        assert cfg.resolve_mode() == "observe"
        monkeypatch.setenv("REPRO_INVARIANTS", "strict")
        assert cfg.resolve_mode() == "strict"
        monkeypatch.setenv("REPRO_INVARIANTS", "OFF")
        assert cfg.resolve_mode() == "off"
        monkeypatch.setenv("REPRO_INVARIANTS", "banana")
        assert cfg.resolve_mode() == "observe"

    def test_explicit_mode_ignores_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "off")
        assert InvariantConfig(mode="strict").resolve_mode() == "strict"

    def test_with_invariants_helper(self):
        cfg = SystemConfig().with_invariants(mode="strict", every_events=10)
        assert cfg.invariants.mode == "strict"
        assert cfg.invariants.every_events == 10
        # Other sections untouched.
        assert cfg.client == SystemConfig().client

    def test_unknown_checker_selection_rejected(self):
        with pytest.raises(ValueError, match="unknown invariant checkers"):
            make_system(checkers=("flow-feasibility", "nonsense"))

    def test_checker_subset_selection(self):
        system = make_system(checkers=("flow-feasibility",))
        assert [c.name for c in system.auditor._all] == ["flow-feasibility"]


class TestRegistry:
    def test_builtin_checkers_registered(self):
        names = list(CHECKERS)
        for expected in ("flow-feasibility", "byte-conservation",
                         "directory-consistency", "nat-symmetry",
                         "sim-time", "sim-heap", "channel-state",
                         "edge-log-reconciliation", "accounting-ledger"):
            assert expected in names

    def test_final_only_split(self):
        assert CHECKERS["edge-log-reconciliation"].final_only
        assert CHECKERS["accounting-ledger"].final_only
        assert CHECKERS["sim-heap"].final_only
        assert not CHECKERS["flow-feasibility"].final_only

    def test_duplicate_registration_rejected(self):
        from repro.invariants import register_checker

        with pytest.raises(ValueError, match="duplicate"):
            register_checker("flow-feasibility", "dup")(lambda s, r: None)


class TestCadence:
    def test_off_mode_installs_no_hook(self):
        system = make_system(mode="off")
        assert system.sim._audit_hook is None
        assert system.audit() == []
        assert system.auditor.stats.final_audits == 0

    def test_sampled_audit_fires_on_event_cadence(self):
        system = make_system(every_events=10)
        for i in range(35):
            system.sim.schedule(float(i + 1), lambda: None)
        system.run(until=100.0)
        assert system.auditor.stats.audits == 3  # 35 events, every 10

    def test_audit_hook_validation(self):
        from repro.net.sim import SimulationError, Simulator

        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.set_audit_hook(lambda: None, every_events=0)
        sim.set_audit_hook(lambda: None, every_events=5)
        assert sim._audit_every == 5

    def test_audit_hook_runs_after_flow_flush(self):
        # The hook must observe settled rates: after an event that starts a
        # flow, the batched mutation is flushed before the audit fires.
        from repro.net.flows import Resource

        system = make_system(every_events=1)
        res = Resource("audit-test", 100.0)
        seen = []
        orig = system.auditor._sampled_audit

        def spy():
            seen.append((len(system.flows._dirty),
                         sum(f.rate for f in res.flows)))
            orig()

        system.sim.set_audit_hook(spy, every_events=1)
        system.sim.schedule(
            1.0, lambda: system.flows.start_flow([res], size=1e9))
        system.run(until=2.0)
        assert seen[0] == (0, 100.0)  # settled, not pending


class TestRecording:
    def test_dedup_and_counting(self):
        system = make_system()
        auditor = system.auditor
        auditor._record("flow-feasibility", "error", "resource:x", "boom")
        system.sim._now = 5.0
        auditor._record("flow-feasibility", "error", "resource:x", "boom again")
        assert len(auditor.violations) == 1
        v = next(iter(auditor.violations.values()))
        assert v.count == 2
        assert v.first_seen == 0.0 and v.last_seen == 5.0
        assert v.detail == "boom"  # first occurrence wins

    def test_cap_drops_distinct_overflow(self):
        system = make_system(max_violations=3)
        for i in range(10):
            system.auditor._record("sim-time", "warning", f"s{i}", "d")
        assert len(system.auditor.violations) == 3
        assert system.auditor.stats.dropped == 7

    def test_report_orders_errors_first(self):
        system = make_system()
        system.auditor._record("a", "warning", "w1", "d")
        system.auditor._record("b", "error", "e1", "d")
        report = system.auditor.report()
        assert [v.severity for v in report] == ["error", "warning"]

    def test_violation_str_and_as_dict(self):
        v = InvariantViolation("x", "error", "s", "bad", 1.0, 9.0, count=3)
        assert "x" in str(v) and "x3" in str(v)
        d = v.as_dict()
        assert d["count"] == 3 and d["severity"] == "error"


class TestStrictMode:
    def test_strict_raises_on_error(self):
        system = make_system(mode="strict")
        with pytest.raises(InvariantViolationError, match="boom"):
            system.auditor._record("flow-feasibility", "error", "r", "boom")
        # Recorded before raising, so the report survives the exception.
        assert system.auditor.stats.errors == 1

    def test_strict_records_warnings_without_raising(self):
        system = make_system(mode="strict")
        system.auditor._record("directory-consistency", "warning", "s", "drift")
        assert system.auditor.stats.warnings == 1

    def test_strict_violation_propagates_out_of_run(self):
        # A corruption visible to the *sampled* audit aborts run() itself.
        from repro.net.flows import Resource

        system = make_system(mode="strict", every_events=1)
        res = Resource("r", 100.0)
        flows = []
        system.sim.schedule(
            1.0,
            lambda: flows.append(system.flows.start_flow([res], size=1e12)))

        def corrupt():
            flows[0].rate = 400.0  # overdrive behind the allocator's back

        system.sim.schedule(2.0, corrupt)
        with pytest.raises(InvariantViolationError):
            system.run(until=10.0)
        assert system.auditor.stats.errors >= 1

    def test_observe_records_instead_of_raising(self):
        system = make_system(mode="observe")
        system.sim._live += 7
        violations = system.audit(final=True)
        assert any(v.subject == "heap:live-counter" for v in violations)


class TestStatsPlumbing:
    def test_inv_keys_in_system_stats(self):
        system = make_system()
        system.audit(final=True)
        stats = system.stats().as_dict()
        assert stats["inv_mode"] == "observe"
        assert stats["inv_final_audits"] == 1
        assert stats["inv_checks"] == len(CHECKERS)
        for key in ("inv_violations", "inv_errors", "inv_warnings",
                    "inv_dropped", "inv_violation_occurrences"):
            assert key in stats

    def test_clean_system_audits_clean(self, system):
        assert system.audit(final=True) == []

    def test_render_audit_includes_violations(self):
        from repro.analysis.report import render_audit

        system = make_system()
        system.auditor._record("sim-time", "error", "clock", "went backwards")
        audit = {
            **system.auditor.stats.as_dict(),
            "violations": [v.as_dict() for v in system.auditor.report()],
        }
        text = render_audit("invariant audit", audit)
        assert "went backwards" in text
        assert "invariant violations" in text
