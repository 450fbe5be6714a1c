"""``repro.vod`` — the VoD streaming workload and serving-policy engine.

The paper notes NetSession "also supports video streaming" but measures
almost none of it (§3.4); this package opens that second workload axis.
It layers a catch-up-TV catalog (:mod:`~repro.vod.catalog`), prime-time
session arrivals with viewer behavior (:mod:`~repro.vod.demand`), and a
pluggable serving-policy engine (:mod:`~repro.vod.policy`) on the core
streaming engine, assembled by :func:`~repro.vod.engine.attach_vod`.

QoE and ISP-impact metrics for the resulting traces live in
:mod:`repro.analysis.qoe`; the policy sweep is ``exp_vod_policies``
(``python -m repro run exp_vod_policies``).
"""

from repro.vod.catalog import (
    VOD_CP_CODE, Episode, Series, VodCatalog, build_vod_catalog,
)
from repro.vod.config import POLICY_NAMES, VodConfig
from repro.vod.demand import VodDemandGenerator, prime_time_rate
from repro.vod.engine import VodRuntime, attach_vod
from repro.vod.policy import (
    IspLocalOnlyPolicy, OffPeakPlacer, OffPeakPrefetchPolicy,
    PopularitySeedingPolicy, ServingPolicy, make_policy,
)

__all__ = [
    "VOD_CP_CODE", "POLICY_NAMES", "VodConfig",
    "Episode", "Series", "VodCatalog", "build_vod_catalog",
    "VodDemandGenerator", "prime_time_rate",
    "VodRuntime", "attach_vod",
    "ServingPolicy", "IspLocalOnlyPolicy",
    "OffPeakPrefetchPolicy", "PopularitySeedingPolicy", "OffPeakPlacer",
    "make_policy",
]
