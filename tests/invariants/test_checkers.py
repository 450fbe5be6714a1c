"""Per-checker tests: each corruption is caught with the right subject.

Every test builds a small live system, breaks one specific law behind the
bookkeeping's back, and asserts the matching checker reports it — the
sanitizer analogue of "does ASan catch this exact overflow".
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.analysis.records import DownloadRecord
from repro.core.config import InvariantConfig, SystemConfig
from repro.core.content import ContentObject, ContentProvider
from repro.core.control.channel import DEGRADED, PROBING, RETRYING
from repro.core.peer import CacheEntry
from repro.core.system import NetSessionSystem
from repro.net.flows import Resource
from repro.workload.devices import DeviceClass, DeviceMixConfig

MB = 1024 * 1024


def bare_system():
    """An empty observe-mode system (no peers, no content)."""
    return NetSessionSystem(
        SystemConfig(invariants=InvariantConfig(mode="observe")), seed=11)


def live_system(*, until=300.0):
    """A seeder plus one mid-flight download, stopped at ``until``.

    Returns ``(system, downloader, obj)`` with the download still active,
    so tests can corrupt a live session / DN entry / channel.
    """
    system = bare_system()
    provider = ContentProvider(cp_code=9001, name="Chk")
    obj = ContentObject("chk/a.bin", 512 * MB, provider, p2p_enabled=True)
    system.publish(obj)
    country = system.world.by_code["DE"]
    seeder = system.create_peer(country=country, uploads_enabled=True)
    seeder.cache[obj.cid] = CacheEntry(obj.cid, completed_at=0.0)
    seeder.boot()
    peer = system.create_peer(country=country, uploads_enabled=True)
    peer.boot()
    system.sim.schedule(60.0, lambda: peer.start_download(obj))
    system.run(until=until)
    return system, peer, obj


def subjects(violations, invariant):
    return {v.subject for v in violations if v.invariant == invariant}


def dn_entry(system):
    """The first DN registration entry (the seeder's replica)."""
    for dn in system.control.all_dns:
        for entries in dn.table.values():
            for entry in entries.values():
                return dn, entry
    raise AssertionError("no DN registration found")


class TestFlowFeasibility:
    def test_clean_flows_pass(self):
        system = bare_system()
        res = Resource("r", 100.0)
        system.flows.start_flow([res], size=1e9)
        assert system.audit(final=False) == []

    def test_transferred_exceeds_size(self):
        system = bare_system()
        res = Resource("r", 100.0)
        flow = system.flows.start_flow([res], size=1e9)
        system.flows.flush()
        flow.transferred = 2e9
        assert f"flow:{flow.flow_id}" in subjects(
            system.audit(final=False), "flow-feasibility")

    def test_active_flow_missing_from_member_set(self):
        system = bare_system()
        res = Resource("r", 100.0)
        flow = system.flows.start_flow([res], size=1e9)
        system.flows.flush()
        res.flows.discard(flow)
        assert f"flow:{flow.flow_id}" in subjects(
            system.audit(final=False), "flow-feasibility")

    def test_inactive_flow_still_attached(self):
        system = bare_system()
        res = Resource("r", 100.0)
        flow = system.flows.start_flow([res], size=1e9)
        system.flows.flush()
        flow.active = False  # leaked: done but never detached
        violations = system.audit(final=False)
        assert any("inactive flow" in v.detail for v in violations)


class TestByteConservation:
    def test_credited_bytes_drift(self):
        system, peer, obj = live_system()
        session = peer.sessions[obj.cid]
        session.edge_bytes += 1
        found = subjects(system.audit(final=False), "byte-conservation")
        assert f"session:{peer.guid[:8]}/{obj.cid}" in found

    def test_per_uploader_sum_mismatch(self):
        system, peer, obj = live_system()
        peer.sessions[obj.cid].per_uploader_bytes["phantom"] = 123
        violations = system.audit(final=False)
        assert any("per-uploader sum" in v.detail for v in violations)

    def test_completed_short_of_object_size(self):
        system, peer, obj = live_system()
        peer.sessions[obj.cid].state = "completed"
        violations = system.audit(final=False)
        assert any("completed with" in v.detail for v in violations)


class TestDirectoryConsistency:
    def test_unknown_guid(self):
        system, _, _ = live_system()
        for dn in system.control.all_dns:
            for entries in dn.table.values():
                if entries:
                    entries["f" * 32] = next(iter(entries.values()))
                    break
        violations = system.audit(final=False)
        assert any("unknown GUID" in v.detail for v in violations)

    def test_invalid_nat_reported(self):
        system, _, _ = live_system()
        _, entry = dn_entry(system)
        entry.nat_reported = "carrier-pigeon"
        violations = system.audit(final=False)
        assert any("invalid nat_reported" in v.detail for v in violations)

    def test_future_refresh_timestamp(self):
        system, _, _ = live_system()
        _, entry = dn_entry(system)
        entry.refreshed_at = system.sim.now + 999.0
        violations = system.audit(final=False)
        assert any("in the future" in v.detail for v in violations)

    def test_entry_outlives_ttl_and_sweep(self):
        system, _, _ = live_system()
        dn, entry = dn_entry(system)
        entry.registered_at = entry.refreshed_at = (
            system.sim.now - dn.registration_ttl - 3700.0)
        violations = system.audit(final=False)
        assert any("outlived TTL" in v.detail for v in violations)

    def test_evicted_replica_is_warning_not_error(self):
        system, _, obj = live_system()
        # Evict the seeder's replica without an unregister landing.
        seeder = next(p for p in system.all_peers if obj.cid in p.cache)
        seeder.cache.pop(obj.cid)
        violations = system.audit(final=False)
        drift = [v for v in violations if "evicted replica" in v.detail]
        assert drift and all(v.severity == "warning" for v in drift)


class TestNatSymmetry:
    def test_malformed_profile_types(self):
        system, peer, _ = live_system()
        peer.nat_profile = SimpleNamespace(
            true_type="open", reported_type="open")
        found = subjects(system.audit(final=False), "nat-symmetry")
        assert f"peer:{peer.guid[:8]}" in found


class TestSimTime:
    def test_clock_backwards(self):
        system, _, _ = live_system()
        system.auditor._last_audit_now = system.sim.now + 50.0
        assert "clock" in subjects(system.audit(final=False), "sim-time")

    def test_pending_event_in_the_past(self):
        import heapq

        system, _, _ = live_system()
        heapq.heappush(
            system.sim._queue, (10.0, 0, SimpleNamespace(pending=True)))
        violations = system.audit(final=False)
        assert "event:t=10.000" in subjects(violations, "sim-time")

    def test_live_counter_corruption_caught_at_final(self):
        system, _, _ = live_system()
        system.sim._live += 7
        violations = system.audit(final=True)
        assert "heap:live-counter" in subjects(violations, "sim-heap")


class TestChannelState:
    def test_unknown_state(self):
        system, peer, _ = live_system()
        peer.channel.state = "hibernating"
        violations = system.audit(final=False)
        assert any("unknown state" in v.detail for v in violations)

    def test_probing_at_event_boundary(self):
        system, peer, _ = live_system()
        peer.channel.state = PROBING
        violations = system.audit(final=False)
        assert any("PROBING" in v.detail for v in violations)

    def test_offline_peer_channel_not_reset(self):
        system, peer, _ = live_system()
        peer.go_offline()
        peer.channel.state = RETRYING
        violations = system.audit(final=False)
        assert any("not reset" in v.detail for v in violations)

    def test_degraded_without_bookkeeping(self):
        system, peer, _ = live_system()
        peer.channel.state = DEGRADED  # none of the DEGRADED obligations hold
        violations = system.audit(final=False)
        # Several broken obligations share the channel subject, so they
        # dedup into one violation counting each occurrence.
        v = next(v for v in violations if "degraded_since" in v.detail)
        assert v.count >= 3  # since unset, CN still held, no probe

    def test_failures_beyond_breaker_threshold(self):
        system, peer, _ = live_system()
        ch = peer.channel
        ch.consecutive_failures = ch.cfg.breaker_threshold
        violations = system.audit(final=False)
        assert any("tripped the breaker" in v.detail for v in violations)


class TestDeviceBudget:
    def _mix(self):
        router = DeviceClass(name="smartrouter", share=1.0,
                             uplink_cap_bps=1000.0, cache_objects=2)
        return router, DeviceMixConfig(classes=(router,))

    def test_device_free_system_is_skipped(self):
        # No declared mix: the checker must not second-guess a
        # homogeneous population (goldens depend on this).
        system, peer, _ = live_system()
        assert subjects(system.audit(final=False), "device-budget") == set()

    def test_flow_exceeding_the_tier_cap(self):
        system, peer, _ = live_system()
        router, mix = self._mix()
        system.device_mix = mix
        # Retroactively declare the live uploader a smartrouter: its
        # in-flight flow was capped at the raw link rate, far above the
        # tier's 1 kB/s budget.
        uploader = next(p for p in system.all_peers if p.upload_flows)
        uploader.device = router
        assert f"device:{uploader.guid[:8]}" in subjects(
            system.audit(final=False), "device-budget")

    def test_cache_over_the_tier_budget(self):
        system, peer, _ = live_system()
        router, mix = self._mix()
        system.device_mix = mix
        peer.device = router
        for i in range(3):  # budget is 2
            peer.cache[f"stuffed/{i}"] = CacheEntry(
                cid=f"stuffed/{i}", completed_at=0.0)
        assert f"device:{peer.guid[:8]}" in subjects(
            system.audit(final=False), "device-budget")

    def test_class_outside_the_declared_mix(self):
        system, peer, _ = live_system()
        _, mix = self._mix()
        system.device_mix = mix
        peer.device = DeviceClass(name="toaster", share=1.0)
        violations = system.audit(final=False)
        assert f"device:{peer.guid[:8]}" in subjects(
            violations, "device-budget")
        assert any("toaster" in v.detail for v in violations)

    def test_compliant_tier_passes(self):
        system, peer, _ = live_system()
        router, mix = self._mix()
        system.device_mix = mix
        peer.device = router  # downloader: no upload flows, small cache
        assert subjects(system.audit(final=False), "device-budget") == set()


class TestFinalReconciliation:
    def _completed_system(self):
        system, peer, obj = live_system(until=20_000.0)
        system.finalize_open_downloads()
        assert any(r.outcome == "completed" for r in system.logstore.downloads)
        return system, peer, obj

    def test_clean_run_reconciles(self):
        system, _, _ = self._completed_system()
        assert system.audit(final=True) == []

    def test_record_claims_unserved_edge_bytes(self):
        system, peer, obj = self._completed_system()
        rec = system.logstore.downloads[0]
        rec.edge_bytes += 1  # one byte the edge never served
        violations = system.audit(final=True)
        assert any("trusted edge logs" in v.detail for v in violations)

    def test_negative_and_time_travelling_records(self):
        system, peer, obj = self._completed_system()
        system.logstore.downloads.append(DownloadRecord(
            guid=peer.guid, url=obj.url, cid=obj.cid,
            cp_code=obj.provider.cp_code, size=obj.size,
            started_at=500.0, ended_at=100.0, edge_bytes=-1, peer_bytes=0,
            p2p_enabled=True, outcome="failed"))
        violations = system.audit(final=True)
        # Both defects hit the same record subject → one deduped violation.
        v = next(v for v in violations if "negative byte count" in v.detail)
        assert v.count >= 2  # the ends-before-start occurrence merged in

    def test_billing_summary_drift(self):
        system, _, _ = self._completed_system()
        summary = system.accounting.billing[9001]
        summary.edge_bytes += 1
        found = subjects(system.audit(final=True), "accounting-ledger")
        assert any(s.startswith("ledger:cp 9001") for s in found)

    def test_upload_credit_drift(self):
        system, _, _ = self._completed_system()
        uploader = next(iter(system.accounting.upload_credit))
        system.accounting.upload_credit[uploader] += 5
        violations = system.audit(final=True)
        assert any("uploader" in v.detail for v in violations)


class TestCheckerPurity:
    def test_audit_draws_no_rng_and_schedules_nothing(self):
        system, _, _ = live_system()
        rng_state = system.rng.getstate()
        pending = system.sim.pending_count()
        system.audit(final=True)
        assert system.rng.getstate() == rng_state
        assert system.sim.pending_count() == pending
