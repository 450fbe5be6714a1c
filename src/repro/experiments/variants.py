"""Standard-trace variants: Figure 5 and the three ablations.

Each row re-runs the standard trace with one knob changed — a
copies-diverse catalog for Figure 5, random peer selection, the edge
backstop off, a cold start with and without predictive placement — and
renders the comparison.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import (
    figure5_efficiency_vs_copies, offload_summary, pct, render_table,
)
from repro.analysis.traffic import locality_shares
from repro.core.placement import PlacementConfig
from repro.experiments.common import Experiment, ExperimentOutput, standard_config

# ----------------------------------------------------------------- Figure 5


def fig5_plan(scale: str, seed: int) -> list:
    """Only a scenario variant with p2p files spread across popularity ranks.

    Figure 5's x-axis spans files with one copy to files with tens of
    thousands; the standard catalog enables p2p only on flagship objects,
    which all land in the same (high) copy regime.  This variant enables
    p2p on a larger, popularity-diverse slice so the copies axis has range.
    """
    cfg = standard_config(scale, seed)
    catalog = replace(
        cfg.catalog,
        p2p_enabled_fraction=0.12,
        p2p_head_bias=0.30,
    )
    return [replace(cfg, catalog=catalog, warm_copies_per_peer=2.0)]


def fig5(artifacts, seed: int) -> ExperimentOutput:
    """Regenerate Figure 5.

    Shape target: efficiency near zero for files with few registered
    copies, rising steeply once tens of copies exist (paper: <10% below 50
    copies, reaching ~80% at high copy counts — the x-axis is compressed by
    the scenario's scale).
    """
    [result] = artifacts
    rows = figure5_efficiency_vs_copies(result.logstore)
    table_rows = [
        (f"{center:.0f}", f"{100 * m:.0f}%", f"{100 * p20:.0f}%", f"{100 * p80:.0f}%")
        for center, m, p20, p80 in rows
    ]
    text = render_table(
        "Figure 5: peer efficiency vs registered copies",
        ["copies (bin center)", "mean eff", "p20", "p80"],
        table_rows,
    )
    metrics = {}
    if rows:
        metrics["low_copy_efficiency"] = rows[0][1]
        metrics["high_copy_efficiency"] = rows[-1][1]
        metrics["monotone_gain"] = rows[-1][1] - rows[0][1]
    return ExperimentOutput(text=text, metrics=metrics)


FIG5 = Experiment(
    "Experiment: Figure 5 — registered copies vs peer efficiency.", fig5,
    fig5_plan)

# ------------------------------------------------------------------ locality


def locality_plan(scale: str, seed: int) -> list:
    """The standard trace plus the random-selection rerun."""
    cfg = standard_config(scale, seed)
    return [cfg, replace(cfg, locality_aware_selection=False)]


def locality(artifacts, seed: int) -> ExperimentOutput:
    """Compare traffic locality shares across selection policies.

    The paper credits NetSession's small ISP impact to "a simple
    locality-aware peer selection strategy" (§6.1 / §7).  How much of the
    p2p traffic stays within the downloader's AS, country and region?
    """
    rows = []
    metrics = {}
    for label, result in zip(("locality-aware", "random"), artifacts):
        shares = locality_shares(result.logstore, result.geodb)
        rows.append((label, pct(shares["intra_as"]),
                     pct(shares["intra_country"]), pct(shares["intra_region"])))
        key = label.replace("-", "_")
        metrics[f"{key}_intra_as"] = shares["intra_as"]
        metrics[f"{key}_intra_country"] = shares["intra_country"]
        metrics[f"{key}_intra_region"] = shares["intra_region"]
    text = render_table(
        "Ablation: peer-selection locality (p2p byte shares staying local)",
        ["policy", "intra-AS", "intra-country", "intra-region"],
        rows,
    )
    gain = (metrics["locality_aware_intra_country"]
            - metrics["random_intra_country"])
    metrics["locality_gain"] = gain
    return ExperimentOutput(
        text=text + f"\n\nlocality raises intra-country share by {100 * gain:.1f} points",
        metrics=metrics,
    )


ABLATION_LOCALITY = Experiment(
    "Ablation: locality-aware vs random peer selection (§6.1 / §7).",
    locality, locality_plan)

# ------------------------------------------------------------------ backstop


def backstop_plan(scale: str, seed: int) -> list:
    """The standard trace plus the backstop-off rerun."""
    cfg = standard_config(scale, seed)
    return [cfg, replace(
        cfg, system=cfg.system.with_client(edge_backstop_enabled=False))]


def backstop(artifacts, seed: int) -> ExperimentOutput:
    """Compare offload and speed with the backstop policy on/off.

    With the backstop policy disabled the edge connection runs at full fair
    share in every download — QoS is maximal but offload collapses, which
    is why NetSession throttles its infrastructure connection when the
    peers are delivering (§3.3's "cover the difference" behaviour,
    inverted).
    """
    rows = []
    metrics = {}
    for label, result in zip(("backstop on", "backstop off"), artifacts):
        summary = offload_summary(result.logstore)
        completed = [r for r in result.logstore.downloads if r.outcome == "completed"]
        speeds = sorted(r.average_speed_bps() * 8 / 1e6 for r in completed)
        median = speeds[len(speeds) // 2] if speeds else 0.0
        rows.append((label, pct(summary.mean_peer_efficiency),
                     pct(summary.byte_weighted_efficiency), f"{median:.1f} Mbps"))
        key = label.replace(" ", "_")
        metrics[f"{key}_efficiency"] = summary.mean_peer_efficiency
        metrics[f"{key}_median_speed"] = median
    text = render_table(
        "Ablation: edge backstop policy",
        ["policy", "mean peer eff", "byte-weighted eff", "median speed"],
        rows,
    )
    return ExperimentOutput(text=text, metrics=metrics)


ABLATION_BACKSTOP = Experiment(
    "Ablation: the edge backstop policy on vs off.", backstop, backstop_plan)

# ----------------------------------------------------------------- placement


def placement_plan(scale: str, seed: int) -> list:
    """A cold start (no pre-trace cached copies) with and without
    predictive placement."""
    cold = replace(standard_config(scale, seed), warm_copies_per_peer=0.0)
    return [cold, replace(cold, placement=PlacementConfig())]


def placement(artifacts, seed: int) -> ExperimentOutput:
    """Cold-start offload with and without predictive placement.

    Paper §5.2: "NetSession does not use predictive caching."  This
    measures what that choice costs on a cold start, against a placement
    policy prefetching hot objects into thin regions.
    """
    rows = []
    metrics = {}
    for key_name, label, result in zip(
            ("cold", "placement"),
            ("no placement (NetSession)", "predictive placement"), artifacts):
        user_logs = [r for r in result.logstore.downloads if not r.prefetch]
        p2p = [r for r in user_logs if r.p2p_enabled and r.outcome == "completed"]
        peer = sum(r.peer_bytes for r in p2p)
        total = sum(r.total_bytes for r in p2p)
        prefetch_bytes = sum(r.total_bytes for r in result.logstore.downloads
                             if r.prefetch)
        eff = peer / total if total else 0.0
        rows.append((label, pct(eff), f"{prefetch_bytes / 1e9:.1f} GB"))
        metrics[f"{key_name}_efficiency"] = eff
        metrics[f"{key_name}_prefetch_gb"] = prefetch_bytes / 1e9
    text = render_table(
        "Ablation: predictive placement on a cold start",
        ["policy", "user-download peer efficiency", "placement traffic"],
        rows,
    )
    gain = metrics["placement_efficiency"] - metrics["cold_efficiency"]
    metrics["placement_gain"] = gain
    return ExperimentOutput(
        text=text + f"\n\nplacement raises cold-start efficiency by {100 * gain:.1f} points",
        metrics=metrics,
    )


ABLATION_PREFETCH = Experiment(
    "Ablation: predictive placement on a cold-started deployment.",
    placement, placement_plan)
