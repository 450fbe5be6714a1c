"""The stats families (:mod:`repro.counters`): flat view, snapshots, merge.

Every counter is declared once, as a dataclass field; the flat view
(``SystemStats.as_dict()``), the snapshot and the shard merge all read
that declaration.  The event digest sorts the flat keys, so the order
``repro perf`` and the drill reports print in is pinned here.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.system import NetSessionSystem, SystemStats
from repro.runner.sharding import _merge_stats
from tests.scale.conftest import tiny_scenario

#: ``tiny_scenario()``'s flat counter keys, in print order.
FLAT_KEYS = [
    "now", "events_processed", "sim_heap_pushes", "sim_stale_pops",
    "pending_events", "peers", "peers_online", "active_flows",
    "flows_completed", "flows_aborted",
    "flow_mutations", "flow_flushes", "flow_reallocations", "flow_components",
    "flow_flows_reallocated", "flow_mean_component_size", "flow_max_component",
    "flow_waterfill_calls", "flow_waterfill_rounds", "flow_heap_pushes",
    "flow_heap_skips", "flow_heap_stale_pops", "flow_heap_compactions",
    "ctrl_requests", "ctrl_attempts", "ctrl_lost_messages", "ctrl_timeouts",
    "ctrl_retries", "ctrl_giveups", "ctrl_dropped_degraded", "ctrl_failovers",
    "ctrl_breaker_trips", "ctrl_probes", "ctrl_probe_failures",
    "ctrl_recoveries", "ctrl_degraded_seconds", "ctrl_mean_time_to_recover",
    "ctrl_sessions_promoted",
    "inv_mode", "inv_audits", "inv_final_audits", "inv_checks",
    "inv_violations", "inv_violation_occurrences", "inv_errors",
    "inv_warnings", "inv_dropped",
    "vod_streams_started", "vod_playbacks_finished", "vod_rebuffer_events",
    "vod_rebuffer_seconds", "vod_policy_filtered", "vod_prefetches_pushed",
    "vod_copies_seeded",
    "rep_corrupted_pieces", "rep_corrupted_bytes", "rep_conn_corruption_drops",
    "rep_uploader_bans", "rep_ban_blocked_attempts", "rep_slow_serves",
    "rep_quarantines", "rep_probations", "rep_reports_ingested",
    "rep_registrations_evicted", "rep_quarantine_leaks",
]


def test_flat_keys_keep_their_print_order():
    from repro.workload import run_scenario

    stats = run_scenario(tiny_scenario()).system.stats()
    assert list(stats.as_dict()) == FLAT_KEYS


def test_flat_view_rounds_and_derives_where_declared():
    stats = SystemStats(now=12.345)
    stats.flows.components, stats.flows.flows_reallocated = 3, 10
    stats.channel.recoveries, stats.channel.degraded_seconds = 3, 10.0
    stats.vod.rebuffer_seconds = 1.25
    flat = stats.as_dict()
    assert flat["now"] == 12.3
    assert flat["flow_mean_component_size"] == 3.33
    assert flat["ctrl_degraded_seconds"] == 10.0
    assert flat["ctrl_mean_time_to_recover"] == 3.3
    assert flat["vod_rebuffer_seconds"] == 1.2


#: Each family's live accumulator on a system, and one counter in it.
LIVE = {
    "flows": (lambda s: s.flows.stats, "mutations"),
    "channel": (lambda s: s.channel_stats, "requests"),
    "invariants": (lambda s: s.auditor.stats, "checks"),
    "vod": (lambda s: s.vod, "streams_started"),
    "defense": (lambda s: s.defense, "quarantines"),
}


def test_every_nested_family_has_a_live_accumulator():
    nested = [f.name for f in dataclasses.fields(SystemStats)
              if "prefix" in f.metadata]
    assert nested == list(LIVE)


@pytest.mark.parametrize("family", list(LIVE))
def test_snapshot_is_independent_of_the_live_accumulator(family):
    system = NetSessionSystem(seed=1)
    live, name = LIVE[family]
    snapshot = system.stats()
    before = getattr(getattr(snapshot, family), name)
    setattr(live(system), name, getattr(live(system), name) + 1)
    assert getattr(getattr(snapshot, family), name) == before
    assert getattr(getattr(system.stats(), family), name) == before + 1


def _shard(now: float, max_component: int, mutations: int,
           mode: str = "observe") -> SystemStats:
    stats = SystemStats(now=now, events_processed=mutations)
    stats.flows.max_component = max_component
    stats.flows.mutations = mutations
    stats.invariants.mode = mode
    return stats


def test_merge_sums_counters_and_takes_the_max_of_gauges():
    merged = _merge_stats([_shard(10.0, 4, 7), _shard(30.0, 2, 5)])
    assert merged.now == 30.0
    assert merged.flows.max_component == 4
    assert merged.flows.mutations == 12
    assert merged.events_processed == 12
    assert merged.invariants.mode == "observe"


def test_merge_rejects_shards_that_disagree_on_mode():
    with pytest.raises(ValueError, match="mode"):
        _merge_stats([_shard(1.0, 1, 1), _shard(1.0, 1, 1, mode="strict")])
