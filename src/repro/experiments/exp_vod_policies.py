"""VoD serving-policy family: QoE vs ISP impact across policies (§7).

The paper's NetSession serves *downloads*; its §7 discussion asks what a
peer-assisted CDN should do for streaming, where ISPs care about peak-hour
transit and viewers care about startup delay and rebuffering.  This family
runs the same catch-up-TV workload (:mod:`repro.vod`) under every serving
policy plus an infrastructure-only baseline (p2p globally disabled), and
reports both sides of the trade:

* QoE — startup-delay p50, rebuffer ratio, finished-playback rate;
* ISP impact — peer offload and the sum over ASes of each AS's busiest
  inter-AS upload hour (what transit is provisioned against).
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import human_bytes, pct, render_table
from repro.analysis.qoe import peak_hour_transit, peak_transit_total, qoe_summary
from repro.experiments.common import (
    Experiment, ExperimentOutput, standard_config,
)
from repro.vod import POLICY_NAMES, VodConfig

#: The infrastructure-only control: same viewers, same catalog, but every
#: byte comes from the edge.  Its peak transit anchors the policy deltas.
BASELINE = "infra-cdn"


def _vod_config(scale: str, policy: str) -> VodConfig:
    sessions = 150 if scale == "small" else 400
    return VodConfig(sessions=sessions, policy=policy)


def _policy_config(scale: str, seed: int, policy: str):
    base = standard_config(scale, seed)
    if policy == BASELINE:
        return replace(
            base,
            vod=_vod_config(scale, "unrestricted"),
            system=replace(base.system, p2p_globally_enabled=False),
        )
    return replace(base, vod=_vod_config(scale, policy))


def variants() -> list[str]:
    """Row order: infra-only control first, then every serving policy."""
    return [BASELINE, *POLICY_NAMES]


def plan(scale: str, seed: int) -> list:
    """One trace per policy, in :func:`variants` order."""
    return [_policy_config(scale, seed, policy) for policy in variants()]


def render(artifacts, seed: int) -> ExperimentOutput:
    """Sweep serving policies over the VoD workload; QoE vs transit table."""
    rows = []
    metrics: dict[str, float] = {}
    for policy, artifact in zip(variants(), artifacts):
        qoe = qoe_summary(artifact.logstore)
        vod = artifact.stats.vod
        peak = peak_transit_total(
            peak_hour_transit(artifact.logstore, artifact.geodb)
        )
        finished_rate = (
            vod.playbacks_finished / vod.streams_started
            if vod.streams_started else 0.0
        )
        rows.append((
            policy,
            pct(qoe["peer_offload"]),
            f"{qoe['startup_p50']:.1f}s",
            pct(qoe["rebuffer_ratio"]),
            pct(finished_rate),
            human_bytes(peak),
        ))
        key = policy.replace("-", "_")
        metrics[f"{key}_offload"] = qoe["peer_offload"]
        metrics[f"{key}_startup_p50"] = qoe["startup_p50"]
        metrics[f"{key}_rebuffer_ratio"] = qoe["rebuffer_ratio"]
        metrics[f"{key}_finished_rate"] = finished_rate
        metrics[f"{key}_peak_transit_bytes"] = peak
        metrics[f"{key}_policy_filtered"] = float(vod.policy_filtered)
        metrics[f"{key}_prefetches_pushed"] = float(vod.prefetches_pushed)
        metrics[f"{key}_copies_seeded"] = float(vod.copies_seeded)

    text = render_table(
        "VoD serving policies: QoE vs ISP peak-hour transit",
        ["policy", "peer offload", "startup p50", "rebuffer", "finished",
         "peak transit"],
        rows,
    )
    local_delta = (
        metrics["unrestricted_peak_transit_bytes"]
        - metrics["isp_local_peak_transit_bytes"]
    )
    metrics["isp_local_transit_saving_bytes"] = local_delta
    return ExperimentOutput(
        text=(
            text
            + "\n\nisp_local trims peer peak-hour transit by "
            + human_bytes(max(0.0, local_delta))
            + " vs unrestricted"
        ),
        metrics=metrics,
    )


ROW = Experiment(
    "VoD serving-policy family: QoE vs ISP impact across policies (§7).",
    render, plan)
