"""Experiment: heterogeneous device tiers — smartrouter offload capture.

ROADMAP item 4 asks two questions the homogeneous-desktop population
cannot answer:

* **Offload capture** — what share of the peer-delivered bytes does a
  small always-on smartrouter tier carry?  The smartrouter-CDN
  measurement literature says such fleets dominate real deployments; here
  the tier's *byte share* is compared against its *population share* (a
  capture ratio > 1 means the tier punches above its weight).
* **Selection shift** — how does class- and reputation-aware candidate
  ranking move Figure 4's speed distribution?  Ranking smartrouters first
  (reputation score breaking ties within a class) should shift the
  peer-assisted speed CDF by steering downloads toward stable, open-NAT
  uploaders.

The sweep holds one workload fixed and varies only the device leaves:

1. ``baseline`` — no device mix (the homogeneous desktop population);
2. ``tiers`` — the default mix (62% desktop, 8% smartrouter, 22% mobile,
   8% settop) with class-blind selection;
3. ``tiers_rank`` — same mix, smartrouters ranked first in candidate
   selection;
4. ``tiers_rank_rep`` — ranking plus the PR 8 reputation engine (class
   dominates, contribution score breaks ties);
5. ``tiers_placement`` — class-blind selection but operator prefetch
   placement steered onto the smartrouter fleet (§5.2's missing feature,
   scoped to hardware the operator controls).
"""

from __future__ import annotations

from repro.analysis import (
    busiest_ases, figure4_speed_cdfs, pct, percentile, render_table,
    trace_offload,
)
from repro.core.config import SystemConfig
from repro.core.placement import PlacementConfig
from repro.experiments.common import Experiment, ExperimentOutput
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
)
from repro.workload.devices import DeviceClass, DeviceMixConfig, default_mix

MB = 1024 * 1024

#: The tier whose capture the experiment measures.
ROUTER = "smartrouter"


def _ranked_mix() -> DeviceMixConfig:
    """The default mix with the smartrouter tier ranked first."""
    classes = tuple(
        DeviceClass(**{**cls.__dict__, "selection_weight": 1.0})
        if cls.name == ROUTER else cls
        for cls in default_mix().classes
    )
    return DeviceMixConfig(classes=classes)


#: (tag, device mix, defense on, router placement) per sweep cell.
CELLS: tuple[tuple[str, DeviceMixConfig | None, bool, bool], ...] = (
    ("baseline", None, False, False),
    ("tiers", default_mix(), False, False),
    ("tiers_rank", _ranked_mix(), False, False),
    ("tiers_rank_rep", _ranked_mix(), True, False),
    ("tiers_placement", default_mix(), False, True),
)


def plan(scale: str, seed: int) -> list:
    """One scenario per :data:`CELLS` entry."""
    return [_cell_config(scale, seed, mix, defense, placement)
            for _, mix, defense, placement in CELLS]


def _cell_config(scale: str, seed: int, mix: DeviceMixConfig | None,
                 defense: bool, placement: bool) -> ScenarioConfig:
    if scale == "standard":
        n_peers, downloads, days = 700, 900, 2.0
    else:
        n_peers, downloads, days = 300, 450, 1.5
    return ScenarioConfig(
        seed=seed,
        duration_days=days,
        population=PopulationConfig(n_peers=n_peers, device=mix),
        demand=DemandConfig(total_downloads=downloads, duration_days=days),
        catalog=CatalogConfig(objects_per_provider=8),
        system=SystemConfig().with_defense(enabled=defense),
        placement=(PlacementConfig(prefer_class=ROUTER, copies_target=4)
                   if placement else None),
    )


def _class_bytes(logstore, classes: dict[str, str]) -> dict[str, int]:
    """Peer-uploaded bytes per device class, attributed uploader by
    uploader through ``DownloadRecord.per_uploader_bytes``."""
    out: dict[str, int] = {}
    for rec in logstore.downloads:
        for guid, nbytes in rec.per_uploader_bytes.items():
            name = classes.get(guid, "desktop")
            out[name] = out.get(name, 0) + nbytes
    return out


def _pooled_p2p_median(result) -> tuple[float, int]:
    """Median peer-assisted download speed (Mbps) pooled over busy ASes."""
    ases = busiest_ases(result.logstore, result.geodb, n=10)
    pooled: list[float] = []
    for asn in ases:
        cdfs = figure4_speed_cdfs(result.logstore, result.geodb, asn)
        pooled.extend(v for v, _ in cdfs["p2p_heavy"])
        if len(pooled) >= 20:
            break
    if not pooled:
        return 0.0, 0
    return percentile(pooled, 50), len(pooled)


def render(artifacts, seed: int) -> ExperimentOutput:
    """Sweep device mixes, selection ranking, and router placement."""
    rows = []
    metrics: dict[str, float] = {}
    p2p_medians: dict[str, float] = {}
    for (tag, mix, _defense, _placement), result in zip(CELLS, artifacts):
        records = list(result.logstore.downloads)
        offload = trace_offload(result.logstore)
        census = result.devices.get("census", {})
        classes = result.devices.get("classes", {})
        total_peers = sum(census.values())
        router_pop_share = (census.get(ROUTER, 0) / total_peers
                            if total_peers else 0.0)
        by_class = _class_bytes(result.logstore, classes)
        peer_total = sum(by_class.values())
        router_byte_share = (by_class.get(ROUTER, 0) / peer_total
                             if peer_total else 0.0)
        capture = (router_byte_share / router_pop_share
                   if router_pop_share else 0.0)
        median_p2p, n_p2p = _pooled_p2p_median(result)
        p2p_medians[tag] = median_p2p

        metrics[f"offload_{tag}"] = offload
        metrics[f"router_pop_share_{tag}"] = router_pop_share
        metrics[f"router_byte_share_{tag}"] = router_byte_share
        metrics[f"router_capture_{tag}"] = capture
        metrics[f"median_p2p_mbps_{tag}"] = median_p2p
        rows.append([
            tag,
            len(records),
            pct(offload),
            pct(router_pop_share) if mix is not None else "-",
            pct(router_byte_share) if mix is not None else "-",
            f"{capture:.2f}x" if mix is not None else "-",
            f"{median_p2p:.1f}" if n_p2p else "-",
        ])

    # The two ROADMAP answers, as headline metrics.
    metrics["router_capture_ratio"] = metrics.get("router_capture_tiers", 0.0)
    base_med = p2p_medians.get("tiers", 0.0)
    rank_med = p2p_medians.get("tiers_rank", 0.0)
    metrics["fig4_p2p_median_shift"] = (
        rank_med / base_med if base_med > 0 else 0.0)
    metrics["placement_capture_gain"] = (
        metrics.get("router_capture_tiers_placement", 0.0)
        - metrics.get("router_capture_tiers", 0.0))

    text = render_table(
        "device tiers: offload capture and selection-shift sweep",
        ["cell", "downloads", "peer offload", "router pop %",
         "router byte %", "capture", "p2p median Mbps"],
        rows,
    )
    lines = [text, ""]
    lines.append(
        f"smartrouter capture (class-blind): {pct(metrics['router_byte_share_tiers'])} "
        f"of peer bytes from {pct(metrics['router_pop_share_tiers'])} of installs "
        f"= {metrics['router_capture_ratio']:.2f}x its population share")
    lines.append(
        f"Fig 4 p2p median with ranking: {rank_med:.1f} Mbps vs {base_med:.1f} "
        f"class-blind ({metrics['fig4_p2p_median_shift']:.2f}x shift; "
        f"reputation-tied cell {p2p_medians.get('tiers_rank_rep', 0.0):.1f} Mbps)")
    lines.append(
        f"operator placement on the router fleet moves capture by "
        f"{metrics['placement_capture_gain']:+.2f}x")
    return ExperimentOutput(text="\n".join(lines), metrics=metrics)


ROW = Experiment(
    "Experiment: heterogeneous device tiers — smartrouter offload capture.",
    render, plan)
