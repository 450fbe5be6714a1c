"""exp_vod_policies: plan shape, orchestrator parity, full sweep."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.exp_vod_policies import BASELINE, variants
from repro.runner import Orchestrator
from repro.runner.fingerprint import fingerprint_config
from repro.vod import POLICY_NAMES, VodConfig
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
)

plan = EXPERIMENTS["exp_vod_policies"].plan


class TestPlanner:
    def test_one_config_per_variant(self):
        cfgs = plan("small", 42)
        assert len(cfgs) == len(variants()) == 1 + len(POLICY_NAMES)
        fps = [fingerprint_config(c) for c in cfgs]
        assert len(set(fps)) == len(fps), "variants must not share a cache key"

    def test_baseline_disables_p2p_globally(self):
        baseline = plan("small", 42)[0]
        assert variants()[0] == BASELINE
        assert baseline.system.p2p_globally_enabled is False
        assert baseline.vod is not None

    def test_policy_variants_cover_the_registry(self):
        cfgs = plan("small", 42)
        assert [c.vod.policy for c in cfgs[1:]] == list(POLICY_NAMES)
        for cfg in cfgs:
            assert cfg.vod.sessions > 0

    def test_prefetch_plan_matches_the_planner(self):
        # A batch plans once to prefetch and ``run_experiment`` plans again
        # to render: both calls must name the same cache keys, or the
        # render would run the sweep a second time.
        assert [fingerprint_config(c) for c in plan("small", 42)] == \
            [fingerprint_config(c) for c in plan("small", 42)]


def _tiny_vod_configs():
    """Three sub-second scenarios with distinct policies, for pool parity."""
    base = ScenarioConfig(
        seed=5,
        duration_days=0.5,
        population=PopulationConfig(n_peers=60),
        demand=DemandConfig(total_downloads=20, duration_days=0.5),
        catalog=CatalogConfig(objects_per_provider=4),
    )
    return [
        dataclasses.replace(base, vod=VodConfig(
            sessions=12, n_series=2, episodes_per_series=2,
            episode_minutes=3.0, bitrate_kbps=800.0, policy=policy))
        for policy in ("unrestricted", "isp_local", "popularity_seeding")
    ]


class TestJobsParity:
    def test_pool_width_never_changes_vod_results(self):
        def resolve(jobs):
            arts = Orchestrator(jobs=jobs).run_many(_tiny_vod_configs())
            return [
                (a.fingerprint,
                 a.stats.vod,
                 [(r.guid, r.cid, r.started_at, r.ended_at, r.outcome,
                   r.rebuffer_events, r.startup_delay, r.peer_bytes)
                  for r in a.logstore.downloads if r.streamed])
                for a in arts
            ]

        assert resolve(1) == resolve(2)


@pytest.mark.slow
class TestFullSweep:
    def test_small_sweep_reports_qoe_and_transit_per_policy(self):
        out = run_experiment("exp_vod_policies", "small", 42)
        assert "peak transit" in out.text
        for name in (BASELINE, *POLICY_NAMES):
            key = name.replace("-", "_")
            assert f"{key}_offload" in out.metrics
            assert f"{key}_rebuffer_ratio" in out.metrics
            assert f"{key}_peak_transit_bytes" in out.metrics
            assert f"{key}_finished_rate" in out.metrics
        # The baseline never moves a peer byte; the policies must be able to.
        assert out.metrics["infra_cdn_offload"] == 0.0
        assert out.metrics["infra_cdn_peak_transit_bytes"] == 0.0
        assert out.metrics["unrestricted_peak_transit_bytes"] > 0.0
        assert out.metrics["isp_local_transit_saving_bytes"] >= 0.0
