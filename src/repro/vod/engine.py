"""Assembly: attach the whole VoD subsystem to a built scenario.

:func:`attach_vod` is the single entry point the scenario driver calls
(late in assembly, after the download workload is scheduled): it builds
and publishes the episode catalog, installs the serving policy as the
control plane's policy stage, runs any pre-trace seeding, arms the
policy's placer, and schedules the viewing sessions.

Every random draw comes from string-seeded RNGs derived from the scenario
seed — never from ``system.rng`` or any other existing stream — so a
scenario with ``vod=None`` is bit-identical to one that never imported
this package, and enabling VoD leaves the download workload's arrivals
untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.placement import PredictivePlacer
from repro.vod.catalog import VodCatalog, build_vod_catalog
from repro.vod.config import VodConfig
from repro.vod.demand import VodDemandGenerator
from repro.vod.policy import ServingPolicy, make_policy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import NetSessionSystem

__all__ = ["VodRuntime", "attach_vod"]

_DAY = 86400.0


@dataclass
class VodRuntime:
    """Everything the VoD attachment created, for inspection and tests."""

    catalog: VodCatalog
    policy: ServingPolicy
    demand: VodDemandGenerator
    placer: Optional[PredictivePlacer]
    copies_seeded: int
    sessions_scheduled: int


def attach_vod(
    system: "NetSessionSystem",
    population,
    config: VodConfig,
    *,
    seed: int,
    duration_days: float,
) -> VodRuntime:
    """Wire the VoD workload and serving policy into ``system``."""
    catalog = build_vod_catalog(
        random.Random(f"repro-vod-catalog:{seed}"), config)
    system.register_provider(catalog.provider)
    for episode in catalog.episodes():
        system.publish(episode.obj)

    counters = system.vod
    policy = make_policy(
        config.policy,
        (episode.obj.cid for episode in catalog.episodes()),
        counters=counters,
    )
    system.control.install_stage(policy)

    seeded = policy.pre_seed(
        system, population, catalog, config,
        random.Random(f"repro-vod-seed:{seed}"),
    )
    placer = policy.build_placer(system, catalog, config)
    if placer is not None:
        placer.start()

    demand = VodDemandGenerator(
        system, population, catalog, config, seed=seed)
    scheduled = demand.schedule_all(duration_days * _DAY)

    return VodRuntime(
        catalog=catalog,
        policy=policy,
        demand=demand,
        placer=placer,
        copies_seeded=seeded,
        sessions_scheduled=scheduled,
    )
