"""The four benchmark workloads: names, rationale, configs, seed panel.

Every workload is a closed batch job — one ``run_scenario_artifact(cfg)``
call, no arrival loop.  Configs are built here from the public dataclasses
of ``repro.workload`` / ``repro.core.config`` and set only the fields the
table in ``README.md`` lists; in particular never ``PopulationConfig.store``
or ``SystemConfig.kernel``, so the benchmark measures the shipped ``auto``
defaults.

``SCALE`` is the one recorded factor every workload's size is multiplied
by (peers, downloads, active-peer cap, VoD sessions; never days): the
issue's full sizes take 8–22 s per repetition, and the driver's contract
gives a run ~30 s.

Why a *panel* of seeds: the simulated work of one trace depends heavily on
its seed — a handful of peer-assisted objects carries most of the bytes, and
their sizes and ranks are a few draws.  Over 48 raw seeds ``download_trace``
wall time has an inter-quartile range of 29 % of its median (``vod_evening``
20 %), at the issue's full size as much as at ``SCALE``, and the driver
judges the benchmark by its spread over ten different ``--seed`` values.  So
a run measures ``PANEL`` traces and reports their cost per trace.  ``--seed
N`` is used raw: it is the first trace's ``ScenarioConfig.seed``, and the
others follow at ``SEED_STRIDE`` — no seed is picked by hand, the expensive
tail is benchmarked like any other trace, and panels of nearby ``--seed``
values share no member.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

__all__ = ["PANEL", "SCALE", "WORKLOADS", "Workload", "panel_seeds",
           "shard_width"]

#: The recorded size factor (see the module docstring).
SCALE = 0.2
#: Traces one run measures, and the distance between their scenario seeds.
PANEL = 8
SEED_STRIDE = 1_000_003


def panel_seeds(seed: int) -> tuple[int, ...]:
    """The ``ScenarioConfig.seed`` of every trace a ``--seed`` run measures;
    the first is ``seed`` itself."""
    return tuple(seed + i * SEED_STRIDE for i in range(PANEL))


def shard_width() -> int:
    """Pool width of ``sharded_regions``: both cores of the reference box."""
    return min(2, os.cpu_count() or 1)


def _sized(full: int, scale: float) -> int:
    return max(1, round(full * scale))


def _download_trace(seed: int, scale: float):
    from repro.workload import DemandConfig, PopulationConfig, ScenarioConfig

    return ScenarioConfig(
        seed=seed,
        duration_days=7.0,
        population=PopulationConfig(n_peers=_sized(3_000, scale)),
        demand=DemandConfig(total_downloads=_sized(3_500, scale),
                            duration_days=7.0),
    )


def _lean(seed: int, scale: float, *, peers: int, downloads: int, system,
          sharding=None):
    """The idle-installed-base shape: no mobility, cloning, warm caches or
    link-busy churn, so the cost is population build plus the download loop."""
    from repro.workload import (
        CatalogConfig, CloningConfig, DemandConfig, MobilityConfig,
        PopulationConfig, ScenarioConfig,
    )

    return ScenarioConfig(
        seed=seed,
        duration_days=3.0,
        system=system,
        population=PopulationConfig(
            n_peers=_sized(peers, scale),
            active_peer_cap=_sized(4_000, scale),
        ),
        demand=DemandConfig(total_downloads=_sized(downloads, scale),
                            duration_days=3.0),
        catalog=CatalogConfig(objects_per_provider=20),
        mobility=MobilityConfig(commuter_fraction=0.0, roamer_fraction=0.0,
                                traveler_fraction=0.0),
        cloning=CloningConfig(affected_fraction=0.0),
        sharding=sharding,
        warm_copies_per_peer=0.0,
    )


def _installed_base(seed: int, scale: float):
    from repro.core.config import ClientConfig, SystemConfig

    return _lean(
        seed, scale, peers=300_000, downloads=1_500,
        system=SystemConfig(client=ClientConfig(link_busy_prob_per_hour=0.0)),
    )


def _vod_evening(seed: int, scale: float):
    from repro.vod.config import VodConfig
    from repro.workload import (
        CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
    )

    return ScenarioConfig(
        seed=seed,
        duration_days=3.0,
        population=PopulationConfig(n_peers=_sized(900, scale)),
        demand=DemandConfig(total_downloads=_sized(1_100, scale),
                            duration_days=3.0),
        catalog=CatalogConfig(objects_per_provider=40),
        vod=VodConfig(sessions=_sized(300, scale), policy="isp_local"),
    )


def _sharded_regions(seed: int, scale: float):
    from repro.core.config import ClientConfig, InvariantConfig, SystemConfig
    from repro.workload.sharding import ShardingConfig

    return _lean(
        seed, scale, peers=200_000, downloads=2_000,
        system=SystemConfig(
            client=ClientConfig(link_busy_prob_per_hour=0.0),
            invariants=InvariantConfig(mode="strict"),
        ),
        sharding=ShardingConfig(shards=shard_width()),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for ``BENCHMARK.json``: which layers it loads, and why.
    why: str
    #: ``(scenario seed, scale) -> ScenarioConfig``.
    build: Callable
    #: Accepted peer-offload fraction (peer bytes / all bytes) and completed
    #: share of download records, pooled over one panel at ``SCALE`` — the
    #: range seen over twenty panels, widened by about its own width either
    #: way: a sanity check that the swarm still forms, not a pin.
    offload_band: tuple[float, float]
    completion_band: tuple[float, float]
    #: True when the traced run also renders the paper's single-trace
    #: tables and figures from the artifact.
    paper_analyses: bool = False

    def config(self, seed: int, scale: float = SCALE):
        return self.build(seed, scale)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="download_trace",
        why=("The paper's month-long download trace in miniature, every "
             "behaviour on: the event loop and net.flows settlement of bursty "
             "swarms dominate, population build is small."),
        build=_download_trace,
        offload_band=(0.30, 0.65),
        completion_band=(0.95, 1.0),
        paper_analyses=True,
    ),
    Workload(
        name="installed_base",
        why=("A large, mostly idle installed base with little demand: "
             "workload.population/columnar build and peak RSS dominate, "
             "so flow-kernel changes should not show here."),
        build=_installed_base,
        offload_band=(0.05, 0.45),
        completion_band=(0.95, 1.0),
    ),
    Workload(
        name="vod_evening",
        why=("Peak-hour streaming under isp_local: paced playback ticks make "
             "most post-event settles no-ops and core.streaming the hot "
             "callback, taxing the paths bursty swarms skip."),
        build=_vod_evening,
        offload_band=(0.05, 0.40),
        completion_band=(0.88, 1.0),
    ),
    Workload(
        name="sharded_regions",
        why=("The only path through runner.sharding: nine region shards on a "
             "2-process pool with strict invariants, measuring fan-out, "
             "pickle, merge and parallel efficiency."),
        build=_sharded_regions,
        offload_band=(0.005, 0.20),
        completion_band=(0.95, 1.0),
    ),
)}
