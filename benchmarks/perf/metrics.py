"""The metric registry: every name the benchmark reports, with its unit,
direction, regression bound (end-to-end) or the end-to-end metric it should
move (per-layer).  ``BENCHMARK.json`` is this registry written out; a test
keeps the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EndToEnd", "PerLayer", "END_TO_END", "PER_LAYER", "manifest"]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median the metric may worsen by.
    bound: float
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: The end-to-end metric this layer metric should move.
    moves: str
    what: str


#: A pass over the seed panel gives one sample of each: the time metrics are
#: means per trace, the rates total work over total wall time.
#:
#: Time bounds are the contract's maximum on purpose.  The driver accepts a
#: bound only if ten runs at ten *different* seeds spread by less than it, and
#: the cost of a trace is a property of its seed: with eight traces per run
#: that spread is still 7–17 % on ``download_trace``.  On top of it the shared
#: 2-core reference box moves back-to-back runs of one seed by 5–18 %.  Claims
#: are made with the paired, same-seed protocol in README.md.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", "lower", 0.25,
             "host seconds per run_scenario_artifact(cfg) call"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "run_scenario entry until NetSessionSystem.run is entered "
             "(summed over region shards on sharded_regions)"),
    EndToEnd("sim_s", "s", "lower", 0.25,
             "host seconds inside NetSessionSystem.run (summed over shards)"),
    EndToEnd("cpu_s", "s", "lower", 0.25,
             "user+system CPU seconds of the process and its reaped pool "
             "workers, per call"),
    EndToEnd("downloads_per_s", "1/s", "higher", 0.25,
             "download records in the merged logs per wall second"),
    EndToEnd("peer_days_per_s", "1/s", "higher", 0.25,
             "n_peers x duration_days simulated per wall second"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05,
             "ru_maxrss of the workload process after the untraced "
             "repetitions, plus the largest pool worker"),
)


def _layer(rows: str) -> tuple[PerLayer, ...]:
    out = []
    for row in rows.strip().splitlines():
        name, unit, better, moves, what = (c.strip() for c in row.split("|"))
        out.append(PerLayer(name, unit, better, moves, what))
    return tuple(out)


PER_LAYER: tuple[PerLayer, ...] = _layer("""
net.geo.world_build_s | s | lower | setup_s | build_core_world self time (x9 on sharded_regions)
net.topology.build_s | s | lower | setup_s | build_topology self time
workload.catalog.build_s | s | lower | setup_s | build_catalog self time
core.system.build_s | s | lower | setup_s | NetSessionSystem construction (edge, control plane, auditor)
workload.population.build_s | s | lower | setup_s | build_population self time
workload.population.peers_built | count | higher | peer_days_per_s | installs synthesised
workload.population.build_peers_per_s | 1/s | higher | setup_s | peers_built / build_s
workload.columnar.materialize_s | s | lower | sim_s | ColumnarPopulationStore.materialize self time
workload.columnar.materialized_peers | count | lower | peak_rss_mb | rows turned into PeerNode objects
workload.columnar.materialized_share | ratio | lower | peak_rss_mb | materialized_peers / peers_built
workload.scenario.warm_caches_s | s | lower | setup_s | seed_warm_caches self time
workload.scenario.other_s | s | lower | setup_s | run_scenario self time (publish loop, glue)
workload.behavior.schedule_s | s | lower | setup_s | UserBehavior.schedule_* self time
workload.mobility.apply_s | s | lower | setup_s | MobilityModel.apply self time
workload.cloning.apply_s | s | lower | setup_s | CloningModel.apply self time
workload.demand.schedule_s | s | lower | setup_s | DemandGenerator.schedule_all self time
workload.callbacks_s | s | lower | sim_s | in-loop callbacks defined under repro.workload
vod.attach_s | s | lower | setup_s | attach_vod self time
vod.callbacks_s | s | lower | sim_s | in-loop callbacks defined under repro.vod
vod.streams_started | count | higher | downloads_per_s | viewing sessions whose playback clock was armed
vod.policy_filtered | count | lower | sim_s | candidates the serving policy refused
net.sim.events | count | lower | sim_s | simulator events processed
net.sim.heap_pushes | count | lower | sim_s | event-heap pushes
net.sim.stale_pops | count | lower | sim_s | cancelled or refired entries popped
net.sim.events_per_s | 1/s | higher | sim_s | events / untraced sim_s
net.sim.loop_self_s | s | lower | sim_s | NetSessionSystem.run minus callbacks and hooks
net.flows.settle_s | s | lower | sim_s | post-event settle hook self time
net.flows.settle_calls | count | lower | sim_s | post-event settle hook invocations
net.flows.useful_settle_ratio | ratio | higher | sim_s | flushes that found dirty flows / settle calls
net.flows.completion_tick_s | s | lower | sim_s | completion-tick callback self time
net.flows.mutation_s | s | lower | sim_s | start_flow/abort_flow/set_cap/set_resource_capacity self time
net.flows.mutations | count | lower | sim_s | mutations received
net.flows.waterfill_calls | count | lower | sim_s | water-filling invocations
net.flows.waterfill_rounds | count | lower | sim_s | freezing rounds inside them
net.flows.flows_reallocated | count | lower | sim_s | flows covered by component walks
net.flows.mean_component_size | count | lower | sim_s | mean flows per walked component
net.flows.max_component | count | lower | sim_s | largest component walked
net.flows.heap_skip_ratio | ratio | higher | sim_s | completion-heap pushes avoided / (pushed + avoided)
core.swarm.callbacks_s | s | lower | sim_s | in-loop callbacks defined in core.swarm
core.swarm.callbacks | count | lower | sim_s | their count
core.swarm.failed_outcome_share | ratio | lower | downloads_per_s | simulated downloads with outcome 'failed' / all download records
core.peer.callbacks_s | s | lower | sim_s | in-loop callbacks defined in core.peer
core.peer.callbacks | count | lower | sim_s | their count
core.streaming.callbacks_s | s | lower | sim_s | in-loop callbacks defined in core.streaming
core.streaming.playback_ticks | count | lower | sim_s | their count
core.control.callbacks_s | s | lower | sim_s | in-loop callbacks defined under core.control
core.control.query_s | s | lower | sim_s | ConnectionNode.query self time
core.control.queries | count | lower | sim_s | ConnectionNode.query calls
core.control.login_s | s | lower | sim_s | ConnectionNode.login self time
core.control.register_s | s | lower | sim_s | ConnectionNode.register_content self time
core.selection.select_s | s | lower | sim_s | select_peers self time
core.selection.calls | count | lower | sim_s | select_peers calls
core.control.channel.requests | count | lower | sim_s | control RPCs issued
core.control.channel.retries | count | lower | downloads_per_s | RPC retries
core.control.channel.timeouts | count | lower | downloads_per_s | RPC timeouts
core.control.channel.giveups | count | lower | downloads_per_s | RPCs abandoned
core.control.channel.failovers | count | lower | downloads_per_s | CN failovers
core.accounting.ingest_s | s | lower | sim_s | AccountingService.ingest self time
core.system.finalize_s | s | lower | wall_s | finalize_open_downloads self time
other.callbacks_s | s | lower | sim_s | in-loop callbacks owned by any other module
invariants.audit_s | s | lower | wall_s | sampled audit hook plus final audit
invariants.audits | count | lower | sim_s | sampled audits run
invariants.checks | count | lower | sim_s | checker invocations
invariants.errors | count | lower | downloads_per_s | error-severity violations
runner.artifact.project_s | s | lower | wall_s | artifact_from_result self time
runner.artifact.pickle_mb | MB | lower | wall_s | pickled size of the merged artifact
runner.fingerprint.config_s | s | lower | wall_s | fingerprint_config self time
runner.sharding.factor_s | s | lower | wall_s | shard_configs self time
runner.sharding.fanout_s | s | lower | wall_s | parallel_map as the sharder calls it, pooled run
runner.sharding.merge_s | s | lower | wall_s | merge_shard_artifacts self time
runner.sharding.overhead_s | s | lower | wall_s | wall_s - (setup_s + sim_s) / width, pooled run
runner.sharding.parallel_efficiency | ratio | higher | wall_s | (setup_s + sim_s) / (width x wall_s), pooled run
runner.sharding.worker_peak_rss_mb | MB | lower | peak_rss_mb | largest pool worker ru_maxrss
runner.cache.put_s | s | lower | wall_s | ResultCache.put of the artifact into a scratch dir
runner.cache.get_s | s | lower | wall_s | ResultCache.get of it back
runner.cache.entry_mb | MB | lower | wall_s | size of that cache entry on disk
runner.other_s | s | lower | wall_s | run_scenario_artifact self time (dispatch, pool-free glue)
analysis.paper_set_s | s | lower | wall_s | Tables 1-4, Figures 2-12 and the three summaries (download_trace only)
analysis.records | count | higher | wall_s | log entries they read
trace.overhead_ratio | ratio | lower | wall_s | traced wall / untraced median wall_s
trace.attributed_share | ratio | higher | wall_s | share of traced wall inside named layer spans
""")


def manifest(workloads, *, command, paths, run_seconds) -> dict:
    """``BENCHMARK.json`` as the driver's contract shapes it."""
    return {
        "command": list(command),
        "paths": list(paths),
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
