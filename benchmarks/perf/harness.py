"""Run one workload in this process: warm-up, repetitions, checks, metrics.

The calling process *is* the workload's fresh subprocess (the CLI spawns
one per workload and per mode), so ``ru_maxrss`` and ``os.times()`` read
here belong to this workload alone.  Two modes:

* :func:`measure` — untraced passes over the workload's seed panel with only
  the four phase stamps live; yields the end-to-end metrics.
* :func:`trace` — the ``--seed`` trace alone: two untraced repetitions for
  reference, then one traced repetition under
  :func:`~benchmarks.perf.tracing.layer_spans`; yields the per-layer
  metrics.  Its span buffer never counts toward ``peak_rss_mb`` because that
  is only read by :func:`measure`.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import pickle
import resource
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.perf import checks
from benchmarks.perf.metrics import END_TO_END, PER_LAYER
from benchmarks.perf.spans import SpanRecorder
from benchmarks.perf.tracing import (
    StampSpool, layer_spans, phase_stamps, require_fork,
)
from benchmarks.perf.workloads import SCALE, Workload, panel_seeds

__all__ = ["ENV_VARS", "scrub_env", "resolved_modes", "measure", "trace",
           "summarize", "Rep", "run_rep", "scratch_dir"]

#: The ``auto`` indirections; dropped so the shipped defaults are measured,
#: not the caller's shell.
ENV_VARS = ("REPRO_KERNEL", "REPRO_POPULATION_STORE", "REPRO_SHARDS",
            "REPRO_INVARIANTS")

#: Scratch space (stamp spool, cache round trip).  Inside the package
#: directory because a run may only write inside its checkout; gitignored.
WORK_ROOT = Path(__file__).resolve().parent / ".work"


def scrub_env(environ=os.environ) -> list[str]:
    """Delete the four ``REPRO_*`` variables; returns the names dropped.
    Must run before ``repro`` is imported."""
    return [name for name in ENV_VARS if environ.pop(name, None) is not None]


def resolved_modes() -> dict[str, object]:
    """What ``auto`` resolves to in this (scrubbed) process."""
    from repro.core.config import InvariantConfig, SystemConfig
    from repro.workload import PopulationConfig
    from repro.workload.sharding import ShardingConfig

    return {
        "kernel": SystemConfig().resolve_kernel(),
        "population_store": PopulationConfig().resolve_store(),
        "shards": ShardingConfig().resolve_shards(),
        "invariants": InvariantConfig().resolve_mode(),
    }


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A private directory under :data:`WORK_ROOT`, removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK_ROOT)


def _worker_peak_rss_mb() -> float:
    """Largest ``ru_maxrss`` among the pool workers reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _cpu_seconds() -> float:
    """User+system CPU of this process and every reaped child so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class Rep:
    """One repetition's raw numbers."""

    #: ``ScenarioConfig.seed`` of the trace this repetition simulated.
    seed: int
    wall_s: float
    cpu_s: float
    #: Sums over the scenarios the call ran (nine region shards, or one).
    setup_s: float = 0.0
    sim_s: float = 0.0
    #: ``parallel_map`` as the sharder called it (0 when unsharded).
    fanout_s: float = 0.0
    #: Download operations: records in the merged log, or the configured
    #: demand when the repetition raised before producing a log.
    downloads: int = 0
    events: int = 0
    digest: str = ""
    tally: checks.Tally = field(default_factory=checks.Tally)
    #: Correctness failures; a non-empty list fails every download above.
    failures: list[str] = field(default_factory=list)


def _configured_downloads(cfg) -> int:
    sessions = cfg.vod.sessions if cfg.vod is not None else 0
    return cfg.resolved_demand().total_downloads + sessions


def run_rep(cfg, spool: StampSpool) -> tuple[Rep, object]:
    """Time one ``run_scenario_artifact(cfg)`` call and check its output.
    Returns the repetition and its artifact (``None`` when the call raised)."""
    import repro.runner

    gc.collect()
    cpu0 = _cpu_seconds()
    started = time.perf_counter()
    try:
        artifact = repro.runner.run_scenario_artifact(cfg)
    except Exception:  # the boundary: a raising repetition is a failed one
        rep = Rep(seed=cfg.seed, wall_s=time.perf_counter() - started,
                  cpu_s=_cpu_seconds() - cpu0,
                  downloads=_configured_downloads(cfg),
                  failures=["raised:\n" + traceback.format_exc()])
        spool.drain()
        return rep, None
    rep = Rep(seed=cfg.seed, wall_s=time.perf_counter() - started,
              cpu_s=_cpu_seconds() - cpu0)
    for record in spool.drain():
        rep.setup_s += record.get("setup_s", 0.0)
        rep.sim_s += record.get("sim_s", 0.0)
        rep.fanout_s += record.get("fanout_s", 0.0)
    rep.downloads = len(artifact.logstore.downloads)
    rep.events = artifact.stats.events_processed
    rep.digest = checks.trace_digest(artifact)
    rep.tally = checks.Tally.of(artifact.logstore.downloads)
    rep.failures = checks.check_artifact(artifact)
    return rep, artifact


def _same_trace(reps: list[Rep]) -> list[str]:
    """All repetitions at one scenario seed must be the same simulated trace."""
    seen: dict[int, set] = {}
    for rep in reps:
        if rep.digest:
            seen.setdefault(rep.seed, set()).add(
                (rep.digest, rep.events, rep.downloads))
    return [f"repetitions of seed {seed} disagree on (digest, events, "
            f"downloads): {sorted(traces)}"
            for seed, traces in seen.items() if len(traces) > 1]


def summarize(values: list[float]) -> dict:
    """Median, quartiles, extremes and count of one metric's samples."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "q1": q1, "q3": q3, "n": len(values)}


def _outcome(workload: Workload, seed: int, scale: float, reps: list[Rep],
             traces: list[Rep], failures: list[str]) -> dict:
    """The result shared by both modes.  ``reps`` is every repetition run,
    ``traces`` one repetition per scenario seed."""
    attempted = sum(r.downloads for r in reps)
    broken = bool(failures)
    pooled = sum((r.tally for r in traces), checks.Tally())
    return {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "reps": len(reps),
        "correct": not broken and not any(r.failures for r in reps),
        "attempted": max(1, attempted),
        "failed": attempted if broken else sum(
            r.downloads for r in reps if r.failures),
        "failures": failures + [f for r in reps for f in r.failures],
        "digests": {str(r.seed): r.digest for r in traces},
        "events": sum(r.events for r in traces),
        "downloads": sum(r.downloads for r in traces),
        "offload_fraction": pooled.offload_fraction,
        "completion_rate": pooled.completion_rate,
        "failed_outcome_share": pooled.failed_outcome_share,
    }


def measure(workload: Workload, seed: int, *, seconds: float,
            scale: float = SCALE, reps: int | None = None) -> dict:
    """Untraced passes over the seed panel for ``seconds`` (or exactly
    ``reps`` passes); returns the end-to-end metrics.  A pass gives one
    sample of each — its mean per trace, or its total work over its total
    time — and the metric is the median over the passes."""
    began = time.perf_counter()
    cfgs = [workload.config(s, scale) for s in panel_seeds(seed)]
    sharding = cfgs[0].sharding
    require_fork(sharding.resolve_shards() if sharding is not None else 1)
    done: list[Rep] = []
    passes: list[list[Rep]] = []
    with scratch_dir() as scratch:
        spool = StampSpool(Path(scratch) / "stamps.jsonl")
        with phase_stamps(spool):
            # One discarded run of the first trace pays imports, numpy
            # initialisation and allocator growth (the first in-process run
            # of a config measured ~40 % slower than the second); its digest
            # pairs with the timed repetition's in the same-trace check.
            done.append(run_rep(cfgs[0], spool)[0])
            slowest = 0.0

            def wants_another() -> bool:
                if done[-1].failures:
                    return False
                if reps is not None:
                    return len(passes) < reps
                return (not passes or
                        time.perf_counter() - began + slowest <= seconds)

            while wants_another():
                started = time.perf_counter()
                passes.append([])
                for cfg in cfgs:
                    done.append(run_rep(cfg, spool)[0])
                    passes[-1].append(done[-1])
                    if done[-1].failures:
                        break
                slowest = max(slowest, time.perf_counter() - started)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # One sample per pass: the pass as one batch job, per trace.  ``done``
    # stands in when the warm-up itself failed, so the result still carries
    # every metric.
    peer_days = cfgs[0].population.n_peers * cfgs[0].duration_days
    series: dict[str, list[float]] = {m.name: [] for m in END_TO_END}
    for one in passes or [done]:
        wall = sum(r.wall_s for r in one)
        series["wall_s"].append(wall / len(one))
        series["setup_s"].append(sum(r.setup_s for r in one) / len(one))
        series["sim_s"].append(sum(r.sim_s for r in one) / len(one))
        series["cpu_s"].append(sum(r.cpu_s for r in one) / len(one))
        series["downloads_per_s"].append(sum(r.downloads for r in one) / wall)
        series["peer_days_per_s"].append(peer_days * len(one) / wall)
    series["peak_rss_mb"] = [own + _worker_peak_rss_mb()]

    traces = passes[0] if passes else done
    failures = _same_trace(done)
    if scale == SCALE and len(traces) == len(cfgs):
        failures += checks.check_bands(
            workload, sum((r.tally for r in traces), checks.Tally()))
    units = {m.name: m.unit for m in END_TO_END}
    out = _outcome(workload, seed, scale, done, traces, failures)
    out["metrics"] = {
        name: {"value": statistics.median(values), "unit": units[name]}
        for name, values in series.items()
    }
    out["samples"] = {name: summarize(values) for name, values in series.items()}
    return out


# ------------------------------------------------------------------ traced

def _paper_set(artifact) -> int:
    """Render the paper's single-trace set from the artifact — Tables 1–4,
    Figures 2–12 and the offload/reliability/mobility summaries — and
    return the number of log entries they read."""
    from repro import analysis as an

    logs, geodb = artifact.logstore, artifact.geodb
    an.table1_overall_statistics(logs, geodb)
    an.table2_provider_regions(logs, geodb)
    an.table3_setting_changes(logs)
    an.table4_upload_enabled_by_provider(logs)
    an.figure2_peer_distribution(logs, geodb)
    an.figure3a_size_cdfs(logs)
    an.figure3b_popularity(logs)
    an.figure3c_bytes_over_time(logs)
    busiest = an.busiest_ases(logs, geodb, 1)
    if busiest:
        an.figure4_speed_cdfs(logs, geodb, busiest[0])
    an.figure5_efficiency_vs_copies(logs)
    an.figure6_efficiency_vs_peers(logs)
    an.figure7_pause_rates(logs)
    an.figure8_country_contributions(logs, geodb)
    matrix = an.build_traffic_matrix(logs, geodb)
    an.figure9a_upload_cdf(matrix)
    an.figure9b_cumulative_contribution(matrix)
    an.figure9c_ips_per_as(matrix)
    an.figure10_balance_scatter(matrix)
    an.figure11_pair_balance(matrix, artifact.topology)
    an.figure12_pattern_census(logs)
    an.offload_summary(logs)
    an.reliability_outcomes(logs)
    an.mobility_summary(logs, geodb)
    return logs.entry_count()


def _cache_round_trip(artifact, scratch: Path) -> dict[str, float]:
    from repro.runner import ResultCache

    cache = ResultCache(scratch / "cache")
    started = time.perf_counter()
    path = cache.put(artifact.fingerprint, artifact)
    put_s = time.perf_counter() - started
    started = time.perf_counter()
    loaded = cache.get(artifact.fingerprint)
    get_s = time.perf_counter() - started
    if loaded is None or checks.trace_digest(loaded) != checks.trace_digest(artifact):
        raise RuntimeError("cache round trip did not return the same trace")
    return {"put_s": put_s, "get_s": get_s,
            "entry_mb": path.stat().st_size / 1e6}


def _layer_values(totals, stores, artifact, untraced: list[Rep],
                  traced_wall: float, width: int, extras: dict) -> dict:
    """Every per-layer metric, from span totals and ``SystemStats``."""
    stats = artifact.stats
    flows, channel, inv = stats.flows, stats.channel, stats.invariants

    def self_s(name: str) -> float:
        return totals[name].self_s if name in totals else 0.0

    def count(name: str) -> int:
        return totals[name].count if name in totals else 0

    def owned(prefix: str) -> float:
        return sum(t.self_s for name, t in totals.items()
                   if name.startswith(prefix))

    wall = statistics.median(r.wall_s for r in untraced)
    serial = statistics.median(r.setup_s + r.sim_s for r in untraced)
    sim_s = statistics.median(r.sim_s for r in untraced)
    named_callbacks = ("cb:workload.", "cb:vod.", "cb:net.flows", "cb:core.swarm",
                       "cb:core.peer", "cb:core.streaming", "cb:core.control.",
                       "hook:net.flows")
    other = sum(t.self_s for name, t in totals.items()
                if name.startswith(("cb:", "hook:"))
                and not name.startswith(named_callbacks))
    build_s = self_s("workload.population.build")
    materialized = sum(s.peak_materialized for s in stores)
    settle_calls = count("hook:net.flows")
    sharded = artifact.config.sharding is not None
    glue = self_s("runner.run") + self_s("workload.scenario.run")

    values = {
        "net.geo.world_build_s": self_s("net.geo.world_build"),
        "net.topology.build_s": self_s("net.topology.build"),
        "workload.catalog.build_s": self_s("workload.catalog.build"),
        "core.system.build_s": self_s("core.system.build"),
        "workload.population.build_s": build_s,
        "workload.population.peers_built": stats.peers,
        "workload.population.build_peers_per_s":
            stats.peers / build_s if build_s else 0.0,
        "workload.columnar.materialize_s":
            self_s("workload.columnar.materialize"),
        "workload.columnar.materialized_peers": materialized,
        "workload.columnar.materialized_share":
            materialized / stats.peers if stats.peers else 0.0,
        "workload.scenario.warm_caches_s":
            self_s("workload.scenario.warm_caches"),
        "workload.scenario.other_s": self_s("workload.scenario.run"),
        "workload.behavior.schedule_s": self_s("workload.behavior.schedule"),
        "workload.mobility.apply_s": self_s("workload.mobility.apply"),
        "workload.cloning.apply_s": self_s("workload.cloning.apply"),
        "workload.demand.schedule_s": self_s("workload.demand.schedule"),
        "workload.callbacks_s": owned("cb:workload."),
        "vod.attach_s": self_s("vod.attach"),
        "vod.callbacks_s": owned("cb:vod."),
        "vod.streams_started": stats.vod.streams_started,
        "vod.policy_filtered": stats.vod.policy_filtered,
        "net.sim.events": stats.events_processed,
        "net.sim.heap_pushes": stats.sim_heap_pushes,
        "net.sim.stale_pops": stats.sim_stale_pops,
        "net.sim.events_per_s": stats.events_processed / sim_s if sim_s else 0.0,
        "net.sim.loop_self_s": self_s("net.sim.loop"),
        "net.flows.settle_s": self_s("hook:net.flows"),
        "net.flows.settle_calls": settle_calls,
        "net.flows.useful_settle_ratio":
            flows.flushes / settle_calls if settle_calls else 0.0,
        "net.flows.completion_tick_s": self_s("cb:net.flows"),
        "net.flows.mutation_s": self_s("net.flows.mutation"),
        "net.flows.mutations": flows.mutations,
        "net.flows.waterfill_calls": flows.waterfill_calls,
        "net.flows.waterfill_rounds": flows.waterfill_rounds,
        "net.flows.flows_reallocated": flows.flows_reallocated,
        "net.flows.mean_component_size": flows.mean_component_size,
        "net.flows.max_component": flows.max_component,
        "net.flows.heap_skip_ratio":
            flows.heap_skips / (flows.heap_pushes + flows.heap_skips)
            if flows.heap_pushes + flows.heap_skips else 0.0,
        "core.swarm.callbacks_s": self_s("cb:core.swarm"),
        "core.swarm.callbacks": count("cb:core.swarm"),
        "core.swarm.failed_outcome_share":
            checks.Tally.of(artifact.logstore.downloads).failed_outcome_share,
        "core.peer.callbacks_s": self_s("cb:core.peer"),
        "core.peer.callbacks": count("cb:core.peer"),
        "core.streaming.callbacks_s": self_s("cb:core.streaming"),
        "core.streaming.playback_ticks": count("cb:core.streaming"),
        "core.control.callbacks_s": owned("cb:core.control."),
        "core.control.query_s": self_s("core.control.query"),
        "core.control.queries": count("core.control.query"),
        "core.control.login_s": self_s("core.control.login"),
        "core.control.register_s": self_s("core.control.register"),
        "core.selection.select_s": self_s("core.selection.select"),
        "core.selection.calls": count("core.selection.select"),
        "core.control.channel.requests": channel.requests,
        "core.control.channel.retries": channel.retries,
        "core.control.channel.timeouts": channel.timeouts,
        "core.control.channel.giveups": channel.giveups,
        "core.control.channel.failovers": channel.failovers,
        "core.accounting.ingest_s": self_s("core.accounting.ingest"),
        "core.system.finalize_s": self_s("core.system.finalize"),
        "other.callbacks_s": other,
        "invariants.audit_s": self_s("invariants.audit"),
        "invariants.audits": inv.audits,
        "invariants.checks": inv.checks,
        "invariants.errors": inv.errors,
        "runner.artifact.project_s": self_s("runner.artifact.project"),
        "runner.artifact.pickle_mb": extras["pickle_mb"],
        "runner.fingerprint.config_s": self_s("runner.fingerprint.config"),
        "runner.sharding.factor_s": self_s("runner.sharding.factor"),
        "runner.sharding.fanout_s":
            statistics.median(r.fanout_s for r in untraced),
        "runner.sharding.merge_s": self_s("runner.sharding.merge"),
        "runner.sharding.overhead_s":
            wall - serial / width if sharded else 0.0,
        "runner.sharding.parallel_efficiency":
            serial / (width * wall) if sharded else 0.0,
        "runner.sharding.worker_peak_rss_mb": _worker_peak_rss_mb(),
        "runner.cache.put_s": extras["cache"]["put_s"],
        "runner.cache.get_s": extras["cache"]["get_s"],
        "runner.cache.entry_mb": extras["cache"]["entry_mb"],
        "runner.other_s": self_s("runner.run"),
        "analysis.paper_set_s": extras["paper_set_s"],
        "analysis.records": extras["paper_records"],
        "trace.overhead_ratio": traced_wall / wall,
        "trace.attributed_share": 1.0 - glue / traced_wall,
    }
    missing = {m.name for m in PER_LAYER} ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer registry and values differ: {sorted(missing)}")
    return values


def trace(workload: Workload, seed: int, *, scale: float = SCALE,
          trace_path: Path | None = None) -> dict:
    """The ``--seed`` trace: a warm-up, two untraced repetitions, then one
    traced; returns per-layer metrics.

    The traced ``sharded_regions`` repetition runs at ``shards=1`` — the
    same nine sub-scenarios in this process, byte-identical by construction
    — so its spans are visible; its pool numbers come from the untraced
    repetitions' stamps.
    """
    cfg = workload.config(seed, scale)
    width = cfg.sharding.resolve_shards() if cfg.sharding is not None else 1
    require_fork(width)
    traced_cfg = cfg
    if cfg.sharding is not None:
        traced_cfg = dataclasses.replace(
            cfg, sharding=dataclasses.replace(cfg.sharding, shards=1))

    recorder = SpanRecorder()
    with scratch_dir() as scratch:
        spool = StampSpool(Path(scratch) / "stamps.jsonl")
        with phase_stamps(spool):
            reps = [run_rep(cfg, spool)[0] for _ in range(3)]
        untraced = reps[1:]  # the first is the warm-up
        with layer_spans(recorder) as probe:
            traced, artifact = run_rep(traced_cfg, spool)
        reps.append(traced)
        values: dict[str, float] = {}
        self_sum_s = 0.0
        if artifact is not None:  # None when the traced repetition raised
            extras = {
                "pickle_mb": len(pickle.dumps(
                    artifact, protocol=pickle.HIGHEST_PROTOCOL)) / 1e6,
                "cache": _cache_round_trip(artifact, Path(scratch)),
                "paper_set_s": 0.0,
                "paper_records": 0,
            }
            if workload.paper_analyses:
                started = time.perf_counter()
                extras["paper_records"] = _paper_set(artifact)
                extras["paper_set_s"] = time.perf_counter() - started
            totals = recorder.totals()
            self_sum_s = sum(t.self_s for t in totals.values())
            values = _layer_values(totals, probe.stores, artifact, untraced,
                                   traced.wall_s, width, extras)
    if trace_path is not None:
        recorder.write_jsonl(trace_path, workload.name)

    units = {m.name: m.unit for m in PER_LAYER}
    out = _outcome(workload, seed, scale, reps, [traced], _same_trace(reps))
    out["metrics"] = {name: {"value": value, "unit": units[name]}
                      for name, value in values.items()}
    out["traced_wall_s"] = traced.wall_s
    out["spans"] = len(recorder)
    out["span_self_sum_s"] = self_sum_s
    return out
