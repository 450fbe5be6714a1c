"""Extension experiment: enterprise software updates over corporate LANs.

Paper §5.3 flags the case where "downloading peers might find a copy of the
requested content within their local network, e.g., in a corporate LAN" —
rare in the 2012 trace, but "this could change, e.g., when NetSession is
used to distribute large software updates."

This experiment builds that future: an update pushed to office fleets whose
machines sit in LAN sites.  With LAN-aware selection, one download per
office seeds the rest of the building at switch speed; the comparison run
disables site assignment.
"""

from __future__ import annotations

import random

from repro.analysis import pct, render_table
from repro.analysis.traffic import site_local_share
from repro.experiments.common import Experiment, ExperimentOutput
from repro.workload import DAY, ScenarioConfig
from repro.workload.script import Script, ScriptObject, Wave

MB = 1024 * 1024
HOUR = 3600.0

N_SITES, SITE_SIZE = 5, 16
UPDATE = ScriptObject("itvendor/update.bin", 800 * MB, 4001, "ITVendor")


def _config(seed: int, *, with_sites: bool) -> ScenarioConfig:
    """Five offices of 16 machines; IT pushes the update and everyone
    downloads it within the first hour."""
    rng = random.Random(seed)
    starts = [rng.uniform(0.0, HOUR) for _ in range(N_SITES * SITE_SIZE)]
    waves = tuple(
        Wave(f"office-{s}", tuple(starts[s * SITE_SIZE:(s + 1) * SITE_SIZE]),
             lan_site=with_sites)
        for s in range(N_SITES))
    return ScenarioConfig(seed=seed, duration_days=10 * HOUR / DAY,
                          script=Script(objects=(UPDATE,), waves=waves))


def _fleet(artifact) -> dict[str, float]:
    site_of_guid = {guid: site
                    for site, guids in artifact.script["sites"].items()
                    for guid in guids}
    completed = [r for r in artifact.logstore.downloads
                 if r.outcome == "completed"]
    durations = sorted(r.ended_at - r.started_at for r in completed)
    median = durations[len(durations) // 2] if durations else 0.0
    edge = sum(r.edge_bytes for r in completed)
    peer_bytes = sum(r.peer_bytes for r in completed)
    return {
        "completed": len(completed) / (N_SITES * SITE_SIZE),
        "median_minutes": median / 60.0,
        "offload": peer_bytes / (edge + peer_bytes) if edge + peer_bytes else 0.0,
        "site_local": site_local_share(artifact.logstore, site_of_guid),
    }


def plan(scale: str, seed: int) -> list:
    """The push with and without LAN sites."""
    return [_config(seed, with_sites=True), _config(seed, with_sites=False)]


def render(artifacts, seed: int) -> ExperimentOutput:
    """Compare the fleet-update push with and without LAN sites."""
    with_lan, without = (_fleet(artifact) for artifact in artifacts)
    rows = [
        ("LAN sites", pct(with_lan["completed"]),
         f"{with_lan['median_minutes']:.1f} min",
         pct(with_lan["offload"]), pct(with_lan["site_local"])),
        ("no sites", pct(without["completed"]),
         f"{without['median_minutes']:.1f} min",
         pct(without["offload"]), pct(without["site_local"])),
    ]
    text = render_table(
        "Extension: enterprise update push (§5.3's corporate-LAN case)",
        ["fleet", "completed", "median time", "offload", "intra-site bytes"],
        rows,
    )
    return ExperimentOutput(
        text=text,
        metrics={
            "lan_site_local": with_lan["site_local"],
            "nolan_site_local": without["site_local"],
            "lan_median_minutes": with_lan["median_minutes"],
            "nolan_median_minutes": without["median_minutes"],
            "lan_offload": with_lan["offload"],
        },
    )


ROW = Experiment(
    "Extension experiment: enterprise software updates over corporate LANs.",
    render, plan)
