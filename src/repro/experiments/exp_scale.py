"""Peers-vs-wall scaling curve: the million-peer columnar + sharded engine.

Not a paper table — an engineering deliverable.  The paper's production
system carried tens of millions of installs (§4.1); the object-graph seed
implementation topped out around 10^4 peers per gigabyte.  This runner
measures how wall-clock grows with population size under the columnar
store (struct-of-arrays, lazy materialization), an ``active_peer_cap``
session schedule, and region-sharded execution, and records the curve as
a ``BENCH_simcore.json``-style trajectory (``BENCH_scale.json``) that
``benchmarks/gate.py`` can gate::

    python -m repro scale --peers 100000 --shards 2 --strict
    python benchmarks/gate.py scale_100k --baseline BENCH_scale.json \
        --current BENCH_scale.fresh.json

The scenario is deliberately lean — no mobility, no cloning, no warm
caches, no link-busy churn — so the measured cost is the engine itself:
population synthesis, session scheduling, and the download loop.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from repro.core.config import ClientConfig, InvariantConfig, SystemConfig
from repro.experiments.common import ExperimentOutput
from repro.runner import run_scenario_artifact
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
)
from repro.workload.cloning import CloningConfig
from repro.workload.mobility import MobilityConfig
from repro.workload.sharding import ShardingConfig

__all__ = ["scale_config", "run_point", "run_curve", "record_curve",
           "bench_name"]

#: History entries kept per bench point (mirrors ``benchmarks/_results``).
HISTORY_LIMIT = 40


def scale_config(
    n_peers: int,
    *,
    seed: int = 42,
    days: float = 3.0,
    shards: int | None = 2,
    strict: bool = False,
) -> ScenarioConfig:
    """The lean scaling scenario for one population size.

    Downloads and the active-session cap grow sublinearly with the
    population: the point is to scale the *installed base* (the paper's
    tens of millions of mostly idle peers), not the workload, which the
    demand knobs control independently.
    """
    cap = min(n_peers, 4_000)
    downloads = min(6_000, max(300, n_peers // 200))
    invariants = (
        InvariantConfig(mode="strict") if strict else InvariantConfig()
    )
    return ScenarioConfig(
        seed=seed,
        duration_days=days,
        system=SystemConfig(
            client=ClientConfig(link_busy_prob_per_hour=0.0),
            invariants=invariants,
        ),
        population=PopulationConfig(
            n_peers=n_peers, active_peer_cap=cap,
        ),
        demand=DemandConfig(total_downloads=downloads, duration_days=days),
        catalog=CatalogConfig(objects_per_provider=20),
        mobility=MobilityConfig(
            commuter_fraction=0.0, roamer_fraction=0.0, traveler_fraction=0.0,
        ),
        cloning=CloningConfig(affected_fraction=0.0),
        sharding=ShardingConfig(shards=shards) if shards else None,
        warm_copies_per_peer=0.0,
    )


def bench_name(n_peers: int) -> str:
    """Stable bench key for one curve point (``scale_100k``, ``scale_1m``)."""
    if n_peers % 1_000_000 == 0:
        return f"scale_{n_peers // 1_000_000}m"
    if n_peers % 1_000 == 0:
        return f"scale_{n_peers // 1_000}k"
    return f"scale_{n_peers}"


def run_point(
    n_peers: int,
    *,
    seed: int = 42,
    days: float = 3.0,
    shards: int | None = 2,
    strict: bool = False,
) -> dict:
    """Run one curve point and return its bench entry."""
    cfg = scale_config(
        n_peers, seed=seed, days=days, shards=shards, strict=strict,
    )
    started = time.perf_counter()
    artifact = run_scenario_artifact(cfg)
    wall = time.perf_counter() - started
    return {
        "peers": n_peers,
        "days": days,
        "wall_seconds": round(wall, 2),
        "peers_per_second": round(n_peers / wall, 1),
        "downloads": len(artifact.logstore.downloads),
        "logins": len(artifact.logstore.logins),
        "shards": cfg.sharding.shards if cfg.sharding else 0,
        "regions": len(artifact.sharding.get("regions", ())) or 1,
        "strict": strict,
    }


def run_curve(
    points,
    *,
    seed: int = 42,
    days: float = 3.0,
    shards: int | None = 2,
    strict: bool = False,
) -> tuple[ExperimentOutput, dict]:
    """Run every point and render the peers-vs-wall table.

    Returns ``(output, results)`` where ``results`` maps bench names to
    entries in the shape :func:`record_curve` (and ``benchmarks/gate.py``)
    consume.
    """
    results: dict[str, dict] = {}
    lines = [
        "Scaling curve: peers vs wall-clock (columnar store, region shards)",
        "",
        f"{'peers':>10}  {'shards':>6}  {'downloads':>9}  "
        f"{'wall_s':>8}  {'peers/s':>10}",
    ]
    for n_peers in points:
        entry = run_point(
            n_peers, seed=seed, days=days, shards=shards, strict=strict,
        )
        results[bench_name(n_peers)] = entry
        lines.append(
            f"{entry['peers']:>10,}  {entry['shards']:>6}  "
            f"{entry['downloads']:>9}  {entry['wall_seconds']:>8.2f}  "
            f"{entry['peers_per_second']:>10,.0f}"
        )
    metrics = {
        name: entry["wall_seconds"] for name, entry in results.items()
    }
    return ExperimentOutput(name="exp_scale", text="\n".join(lines),
                            metrics=metrics), results


def record_curve(results: dict[str, dict], path: Path) -> None:
    """Merge curve entries into the trajectory file at ``path``.

    Same shape as ``benchmarks/_results.record_results`` (latest values at
    the top level, a capped ``history`` series per bench), duplicated here
    because the installed package cannot depend on the repo's benchmarks
    directory.
    """
    if not results:
        return
    merged: dict = {}
    if path.exists():
        merged = json.loads(path.read_text())
    history: dict[str, list] = merged.get("history", {})
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for name, values in results.items():
        merged[name] = values
        series = history.setdefault(name, [])
        series.append({"recorded": stamp, **values})
        del series[:-HISTORY_LIMIT]
    merged["history"] = history
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
