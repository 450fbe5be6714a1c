"""Region-sharded scenario execution: factor, fan out, merge, reconcile.

One sharded run factors a :class:`~repro.workload.scenario.ScenarioConfig`
into per-geographic-region sub-scenarios (Table 2's regions), runs them
across the :func:`~repro.runner.orchestrator.parallel_map` process pool,
and merges the shard artifacts into one :class:`ScenarioArtifact`.

The decomposition is *always* per region — ``ShardingConfig.shards`` only
sets the pool width the region sub-scenarios fan out across — so
``shards=1`` and ``shards=4`` produce byte-identical merged artifacts by
construction: the same sub-scenarios run either way, each deterministic
from its own config, and the merge orders by sorted region name, never by
completion order.

How the factoring keeps a globally consistent address space:

* every worker rebuilds the **full** parent world and the **full** parent
  AS topology (both deterministic from the parent config), then runs its
  sub-scenario over a region-filtered :class:`~repro.net.geo.World` — so
  shard peers keep the AS numbers and IP prefixes they would have had in
  any other factoring;
* IPs are allocated from per-ASN counters and eyeball ASes belong to
  exactly one country (hence one region), so shard address pools are
  disjoint and the merged geo database is a plain union;
* peer GUIDs derive from shard-seeded RNG streams; the reconciliation
  pass *checks* disjointness rather than assuming it.

Population, demand, and VoD volumes are apportioned to regions by the
world's peer-weight shares using the largest-remainder method, so the
merged trace carries the same totals as an unsharded run of the parent
config (up to the documented at-least-one-download floor per region).

The merged artifact is a *different* (region-factored) trace than the
unsharded single trace — cross-region peer transfers cannot happen inside
a shard — which is why ``sharding`` is a cache key and the goldens pin the
unsharded trace.  The ``reconcile`` pass quantifies exactly that: it
records each region's peer/edge byte split and verifies zero cross-shard
GUID leakage, writing the import/export matrix to
``ScenarioArtifact.sharding``.

Fault schedules are rejected: a fault spec targets the global peer
universe (region partitions, CN outages), which a region factoring cannot
represent faithfully.
"""

from __future__ import annotations

import dataclasses
import random

from repro.analysis.logstore import LogStore
from repro.net.geo import GeoDatabase, World, build_core_world
from repro.net.topology import build_topology
from repro.runner.artifact import ScenarioArtifact, artifact_from_result
from repro.runner.fingerprint import fingerprint_config
from repro.runner.orchestrator import parallel_map
from repro.workload.scenario import ScenarioConfig, run_scenario

__all__ = [
    "apportion", "merge_shard_artifacts", "run_sharded_artifact",
    "shard_configs", "shard_seed",
]


# ------------------------------------------------------------- apportionment

def apportion(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` into integer shares ∝ ``weights`` (largest remainder).

    Deterministic: ties in fractional remainder break by index.  The shares
    always sum to exactly ``total``.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    scale = sum(weights)
    if scale <= 0:
        raise ValueError("weights must have a positive sum")
    exact = [total * w / scale for w in weights]
    shares = [int(x) for x in exact]
    leftover = total - sum(shares)
    by_remainder = sorted(
        range(len(exact)), key=lambda i: (-(exact[i] - shares[i]), i)
    )
    for i in by_remainder[:leftover]:
        shares[i] += 1
    return shares


def _apportion_at_least_one(total: int, weights: list[float]) -> list[int]:
    """Like :func:`apportion` but every share gets at least 1.

    Needed for knobs whose config validation rejects zero (a region's
    demand generator needs at least one arrival).  When ``total`` is
    smaller than the region count the sum exceeds ``total`` — documented
    behaviour for degenerate tiny configs, irrelevant at any real scale.
    """
    n = len(weights)
    if total <= n:
        return [1] * n
    return [s + 1 for s in apportion(total - n, weights)]


def shard_seed(parent_seed: int, region: str) -> int:
    """The deterministic seed a region's sub-scenario runs under.

    String-seeded so it depends only on (parent seed, region name) — not
    on region order, shard width, or which pool worker picks it up.
    """
    return random.Random(f"repro-shard:{parent_seed}:{region}").getrandbits(63)


# ----------------------------------------------------------------- factoring

def shard_configs(cfg: ScenarioConfig) -> list[tuple[str, ScenarioConfig]]:
    """Factor a sharded config into its per-region sub-scenarios.

    Returns ``(region, sub_config)`` pairs in sorted region order.  Regions
    apportioned zero peers (possible only for tiny populations) are
    dropped, and their demand share flows to the surviving regions.
    """
    if cfg.sharding is None:
        raise ValueError("shard_configs needs a config with sharding set")
    if cfg.faults:
        raise ValueError(
            "sharded scenarios do not support fault schedules: fault specs "
            "target the global peer universe, which a region factoring "
            "cannot represent; run faults unsharded"
        )
    world = build_core_world(
        extra_territories=cfg.extra_territories, seed=cfg.seed
    )
    regions = sorted({c.region for c in world.countries})
    weights = [world.region_weight(r) for r in regions]
    peer_shares = apportion(cfg.population.n_peers, weights)
    kept = [
        (r, w, p) for r, w, p in zip(regions, weights, peer_shares) if p > 0
    ]
    if not kept:
        raise ValueError("population too small to shard: no region got a peer")
    regions = [r for r, _, _ in kept]
    weights = [w for _, w, _ in kept]
    peer_shares = [p for _, _, p in kept]

    demand = cfg.resolved_demand()
    download_shares = _apportion_at_least_one(demand.total_downloads, weights)
    cap_shares = (
        _apportion_at_least_one(cfg.population.active_peer_cap, weights)
        if cfg.population.active_peer_cap is not None else [None] * len(regions)
    )
    vod_shares = (
        apportion(cfg.vod.sessions, weights)
        if cfg.vod is not None else [None] * len(regions)
    )

    out: list[tuple[str, ScenarioConfig]] = []
    for region, n_peers, downloads, cap, vod_sessions in zip(
        regions, peer_shares, download_shares, cap_shares, vod_shares
    ):
        population = dataclasses.replace(
            cfg.population, n_peers=n_peers, active_peer_cap=cap
        )
        vod = (
            dataclasses.replace(cfg.vod, sessions=vod_sessions)
            if cfg.vod is not None else None
        )
        sub = dataclasses.replace(
            cfg,
            seed=shard_seed(cfg.seed, region),
            population=population,
            demand=dataclasses.replace(demand, total_downloads=downloads),
            vod=vod,
            sharding=None,
        )
        out.append((region, sub))
    return out


def _run_region_shard(payload: tuple) -> ScenarioArtifact:
    """Pool worker: run one region sub-scenario over the shared topology.

    Module-level (picklable by reference); everything it needs travels in
    the payload, and every RNG inside re-seeds from the configs alone, so
    the artifact is identical in-process or in any pool worker.
    """
    sub_cfg, region, parent_extra, parent_seed = payload
    full_world = build_core_world(
        extra_territories=parent_extra, seed=parent_seed
    )
    topology = build_topology(full_world, random.Random(parent_seed ^ 0x70_70))
    region_world = World(
        [c for c in full_world.countries if c.region == region]
    )
    result = run_scenario(sub_cfg, world=region_world, topology=topology)
    return artifact_from_result(result)


# ------------------------------------------------------------------- merging

def _merge_stats(stats_list):
    """Fieldwise merge of :class:`~repro.core.system.SystemStats` trees.

    Counters sum; fields declared ``gauge`` (see :mod:`repro.counters`)
    take the max; string fields (the resolved invariant mode) must agree
    across shards.
    """

    def merge(values):
        first = values[0]
        return type(first)(**{
            f.name: merge_field(f, [getattr(v, f.name) for v in values])
            for f in dataclasses.fields(first)
        })

    def merge_field(field, values):
        first = values[0]
        if dataclasses.is_dataclass(first):
            return merge(values)
        if isinstance(first, str):
            if any(v != first for v in values):
                raise ValueError(f"shard stats disagree on {field.name!r}: "
                                 f"{sorted(set(values))}")
            return first
        if isinstance(first, (int, float)):
            return max(values) if field.metadata.get("gauge") else sum(values)
        raise TypeError(
            f"cannot merge stats field {field.name!r} of type "
            f"{type(first).__qualname__}")

    return merge(list(stats_list))


def _merge_census(censuses: list[dict]) -> dict:
    """Key-wise sum, keys in first-appearance order (shards share the
    pattern vocabulary, so this is the schedule's own order)."""
    out: dict = {}
    for census in censuses:
        for key, value in census.items():
            out[key] = out.get(key, 0) + value
    return out


def _merge_devices(records: list[dict]) -> dict:
    """Sum the class censuses, union the guid->class maps."""
    present = [r for r in records if r]
    if not present:
        return {}
    return {
        "census": _merge_census([r["census"] for r in present]),
        "classes": {guid: name for r in present
                    for guid, name in r["classes"].items()},
    }


def _merge_adversary(metrics: list[dict]) -> dict:
    """Sum the counters, recompute the derived rate over the merged total."""
    present = [m for m in metrics if m]
    if not present:
        return {}
    out: dict = {}
    for m in present:
        for key, value in m.items():
            if key == "false_positive_ban_rate":
                continue
            out[key] = out.get(key, 0) + value
    quarantined = out.get("quarantined_peers", 0)
    out["false_positive_ban_rate"] = (
        out.get("false_positive_bans", 0) / quarantined if quarantined else 0.0
    )
    return out


def _reconcile(shards: list[tuple[str, ScenarioArtifact]]) -> dict:
    """The cross-region reconciliation pass: per-region byte matrix plus a
    checked shard-isolation invariant.

    Every download's uploaders must be GUIDs of the same shard — region
    factoring admits no cross-region peer transfer — and no GUID may appear
    in two shards (seed-derived GUID streams are disjoint by construction;
    this *checks* it).  ``cross_region_peer_bytes`` is therefore exactly
    the byte volume the factoring forgoes relative to a global swarm: zero
    from the shards themselves, quantified here so the merged artifact is
    honest about what it is.
    """
    per_region: dict[str, dict] = {}
    guid_home: dict[str, str] = {}
    overlap = 0
    cross_bytes = 0
    for region, art in shards:
        store = art.logstore
        local_guids = store.distinct_guids()
        for guid in local_guids:
            if guid_home.setdefault(guid, region) != region:
                overlap += 1
        for rec in store.downloads:
            for uploader, nbytes in rec.per_uploader_bytes.items():
                if uploader not in local_guids:
                    cross_bytes += nbytes
        per_region[region] = {
            "peers": art.stats.peers,
            "guids": len(local_guids),
            "downloads": len(store.downloads),
            "logins": len(store.logins),
            "peer_bytes": sum(r.peer_bytes for r in store.downloads),
            "edge_bytes": sum(r.edge_bytes for r in store.downloads),
        }
    if overlap:
        raise ValueError(
            f"shard isolation violated: {overlap} GUID(s) appear in more "
            "than one region shard")
    return {
        "per_region": per_region,
        "guid_overlap": overlap,
        "cross_region_peer_bytes": cross_bytes,
    }


def merge_shard_artifacts(
    cfg: ScenarioConfig, shards: list[tuple[str, ScenarioArtifact]]
) -> ScenarioArtifact:
    """Merge per-region shard artifacts into the parent's artifact.

    Order-canonical: shards merge in sorted region order regardless of the
    order given (or the order the pool finished them in).
    """
    shards = sorted(shards, key=lambda pair: pair[0])
    logstore = LogStore()
    geodb = GeoDatabase()
    timeline: list[str] = []
    violations: list[dict] = []
    for region, art in shards:
        logstore.downloads.extend(art.logstore.downloads)
        logstore.logins.extend(art.logstore.logins)
        logstore.registrations.extend(art.logstore.registrations)
        for ip, record in art.geodb.items():
            geodb.register(ip, record)
        timeline.extend(art.timeline)
        violations.extend(art.violations)

    sharding_record = {
        "regions": [region for region, _ in shards],
        "shards": cfg.sharding.shards,
        "peers_per_region": {
            region: art.config.population.n_peers for region, art in shards
        },
        "reconcile": _reconcile(shards),
    }

    # The merged artifact carries the *parent* config and fingerprint: it
    # is the answer to "run this sharded config", cached under that key.
    # Every shard ran over the same full parent topology, so any copy is
    # the merged one; the world is the full parent world.
    return ScenarioArtifact(
        config=cfg,
        fingerprint=fingerprint_config(cfg),
        logstore=logstore,
        geodb=geodb,
        topology=shards[0][1].topology,
        world=build_core_world(
            extra_territories=cfg.extra_territories, seed=cfg.seed
        ),
        stats=_merge_stats([art.stats for _, art in shards]),
        mobility_census=_merge_census(
            [art.mobility_census for _, art in shards]),
        cloning_census=_merge_census(
            [art.cloning_census for _, art in shards]),
        finalized_downloads=sum(
            art.finalized_downloads for _, art in shards),
        recoveries=(),
        timeline=tuple(timeline),
        violations=tuple(violations),
        adversary=_merge_adversary([art.adversary for _, art in shards]),
        sharding=sharding_record,
        devices=_merge_devices([art.devices for _, art in shards]),
    )


def run_sharded_artifact(cfg: ScenarioConfig) -> ScenarioArtifact:
    """Factor, fan out at the configured width, merge, reconcile.

    The entry point :func:`repro.runner.artifact.run_scenario_artifact`
    dispatches here when ``config.sharding`` is set; callers never invoke
    this directly.
    """
    pairs = shard_configs(cfg)
    payloads = [
        (sub, region, cfg.extra_territories, cfg.seed)
        for region, sub in pairs
    ]
    artifacts = parallel_map(
        _run_region_shard, payloads, jobs=cfg.sharding.shards)
    return merge_shard_artifacts(
        cfg, [(region, art) for (region, _), art in zip(pairs, artifacts)]
    )
