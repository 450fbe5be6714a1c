"""Related-work experiment: Antfarm-style coordination (paper §7).

NetSession's control plane coordinates peers but "does not implement an
explicit incentive mechanism" and does not plan edge bandwidth across
swarms the way Antfarm's coordinator does.  This experiment stages the
situation where Antfarm's planning matters — several concurrent swarms with
very different self-sufficiency sharing a scarce seeding budget — and
compares managed allocation against a naive equal split.
"""

from __future__ import annotations

import random

from repro.analysis import pct, render_table
from repro.baselines.managed_swarm import ManagedSwarmConfig, ManagedSwarmSystem
from repro.baselines.p2p_cdn import P2PPeer
from repro.experiments.common import Experiment, ExperimentOutput

MBPS = 1e6 / 8


def _build(policy: str, seed: int) -> ManagedSwarmSystem:
    system = ManagedSwarmSystem(
        ManagedSwarmConfig(seed_budget_bps=12 * MBPS, policy=policy),
        seed=seed)
    rng = random.Random(seed)
    # Three swarms: one healthy (many strong uploaders), one mediocre, one
    # starving (few peers, mostly free riders).
    profiles = {
        "healthy": [(rng.uniform(1.5, 3.0), False) for _ in range(14)],
        "mediocre": [(rng.uniform(0.5, 1.0), i % 3 == 0) for i in range(8)],
        "starving": [(0.2, i % 2 == 0) for i in range(5)],
    }
    for name, members in profiles.items():
        torrent = system.add_torrent(name, 80e6)
        for index, (up_mbps, free) in enumerate(members):
            peer = P2PPeer(f"{name}-{index}", up_bps=up_mbps * MBPS,
                           down_bps=12 * MBPS, free_rider=free)
            system.start_download(torrent, peer)
    return system


def render(artifacts, seed: int) -> ExperimentOutput:
    """Managed vs equal-split seeding across heterogeneous swarms (the
    row's plan is empty: the swarm model runs inline, not as a scenario)."""
    rows = []
    metrics = {}
    for policy in ("managed", "equal_split"):
        system = _build(policy, seed)
        system.run(3 * 3600.0)
        stats = system.aggregate_stats()
        rows.append((policy, pct(stats["completed"]),
                     f"{stats['mean_time'] / 60:.1f} min"))
        metrics[f"{policy}_completed"] = stats["completed"]
        metrics[f"{policy}_mean_minutes"] = stats["mean_time"] / 60.0
    text = render_table(
        "Related work: Antfarm-style managed seeding vs equal split",
        ["policy", "completed", "mean completion time"],
        rows,
    )
    return ExperimentOutput(text=text, metrics=metrics)


ROW = Experiment(
    "Related-work experiment: Antfarm-style coordination (paper §7).",
    render, plan=lambda scale, seed: [])
