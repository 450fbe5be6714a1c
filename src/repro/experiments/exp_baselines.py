"""Experiment: hybrid vs pure-infrastructure vs pure-P2P (§2's design space).

Not a paper table, but the comparison the whole paper argues: the hybrid
keeps infrastructure-grade reliability while offloading most bytes, where
the pure architectures each sacrifice one side.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.analysis import pct, render_table, trace_offload
from repro.baselines import P2PConfig, P2PPeer, PureP2PSwarm
from repro.experiments.common import Experiment, ExperimentOutput, standard_config
from repro.workload.script import wave_stats


def plan(scale: str, seed: int) -> list:
    """The hybrid standard trace plus the p2p-off rerun."""
    cfg = standard_config(scale, seed)
    return [cfg, replace(cfg, system=replace(cfg.system, p2p_globally_enabled=False))]


def render(artifacts, seed: int) -> ExperimentOutput:
    """Compare the three architectures on the same workload scale."""
    # Hybrid: the standard scenario; pure infrastructure: p2p globally off.
    hybrid, infra = artifacts
    hybrid_completed = wave_stats(hybrid.logstore.downloads)["completion_rate"]
    hybrid_offload = trace_offload(hybrid.logstore)
    infra_completed = wave_stats(infra.logstore.downloads)["completion_rate"]
    infra_offload = trace_offload(infra.logstore)

    # Pure P2P: a BitTorrent-like swarm on an equivalent object, with the
    # same churn-prone population and no backstop.
    swarm = PureP2PSwarm(P2PConfig(), seed=seed)
    rng = random.Random(seed)
    seeders = [P2PPeer(f"seed{i}", up_bps=2e6 / 8, down_bps=2e7 / 8) for i in range(3)]
    torrent = swarm.add_torrent("installer", 800e6, seeders)
    leechers = []
    for i in range(60):
        free = rng.random() < 0.69  # NetSession-like contribution mix
        peer = P2PPeer(f"leech{i}", up_bps=rng.uniform(0.5e6, 4e6) / 8,
                       down_bps=rng.uniform(4e6, 40e6) / 8, free_rider=free)
        leechers.append(swarm.start_download(torrent, peer))
    swarm.run(12 * 3600)
    p2p_stats = swarm.completion_stats(torrent)

    rows = [
        ("hybrid (NetSession)", pct(hybrid_completed), pct(hybrid_offload)),
        ("pure infrastructure", pct(infra_completed), pct(infra_offload)),
        ("pure p2p (BitTorrent-like)", pct(p2p_stats["completed"]), "100.0%"),
    ]
    text = render_table(
        "Design space: completion vs offload",
        ["architecture", "completion rate", "bytes offloaded from infra"],
        rows,
    )
    return ExperimentOutput(
        text=text,
        metrics={
            "hybrid_completion": hybrid_completed,
            "hybrid_offload": hybrid_offload,
            "infra_completion": infra_completed,
            "infra_offload": infra_offload,
            "pure_p2p_completion": p2p_stats["completed"],
        },
    )


ROW = Experiment(
    "Experiment: hybrid vs pure-infrastructure vs pure-P2P (§2's design space).",
    render, plan)
