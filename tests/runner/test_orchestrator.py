"""Orchestrator scheduling: dedup, cache resolution order, ordered merge."""

from __future__ import annotations

import dataclasses

import pytest

import repro.runner.orchestrator as orchestrator_module
from repro.runner import (
    Orchestrator, ResultCache, fingerprint_config, parallel_map,
)

from tests.runner.conftest import tiny_config

pytestmark = pytest.mark.runner


class TestParallelMap:
    def test_preserves_input_order_in_process(self):
        assert parallel_map(abs, [-3, 1, -2], jobs=1) == [3, 1, 2]

    def test_preserves_input_order_across_pool(self):
        # abs is picklable by reference; 2 workers, order must not leak.
        assert parallel_map(abs, [-3, 1, -2, -9], jobs=2) == [3, 1, 2, 9]

    def test_empty_input(self):
        assert parallel_map(abs, [], jobs=4) == []

    def test_fingerprints_identical_across_process_boundary(self):
        # The scheduler keys on fingerprints computed in the parent; a
        # worker recomputing them must agree, or the orchestrator's
        # sanity check would reject every pooled artifact.
        configs = [tiny_config(seed=s) for s in (1, 2)]
        assert parallel_map(fingerprint_config, configs, jobs=2) == [
            fingerprint_config(c) for c in configs
        ]


class TestDedup:
    def test_duplicate_configs_resolve_to_one_run(self):
        runner = Orchestrator()
        a, b = tiny_config(seed=3), tiny_config(seed=4)
        artifacts = runner.run_many([a, b, tiny_config(seed=3)])
        assert artifacts[0] is artifacts[2]
        assert artifacts[0] is not artifacts[1]
        assert len(runner.cached()) == 2

    def test_same_seed_different_knobs_do_not_collide(self):
        # Regression: the old (scale, seed)-keyed module cache served
        # whichever config ran first. Content addressing must keep them
        # apart even when seed (and everything (scale, seed) encoded)
        # matches.
        runner = Orchestrator()
        base = tiny_config(seed=42)
        variant = tiny_config(seed=42, warm_copies_per_peer=0.0)
        one, two = runner.run_many([base, variant])
        assert one.fingerprint != two.fingerprint
        assert one.config == base
        assert two.config == variant
        # The knob matters: a cold start registers fewer pre-seeded copies,
        # so the traces genuinely differ — a collision would be visible.
        assert one.stats.as_dict() != two.stats.as_dict()


class TestResolutionOrder:
    def test_memory_hit_skips_the_disk(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        runner = Orchestrator(cache=cache)
        config = tiny_config(seed=6)
        first = runner.result(config)
        monkeypatch.setattr(cache, "get", lambda fp: pytest.fail(
            "memory hit must not touch the disk cache"))
        assert runner.result(config) is first

    def test_disk_hit_skips_the_run(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        config = tiny_config(seed=7)
        Orchestrator(cache=cache).result(config)  # warm the disk

        def explode(*args, **kwargs):
            pytest.fail("disk hit must not re-run the scenario")

        monkeypatch.setattr(orchestrator_module, "run_scenario_artifact",
                            explode)
        fresh = Orchestrator(cache=cache)  # empty memory, same disk
        loaded = fresh.result(config)
        assert loaded.fingerprint == fingerprint_config(config)

    def test_run_lands_in_both_caches(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = Orchestrator(cache=cache)
        config = tiny_config(seed=8)
        artifact = runner.result(config)
        assert artifact.fingerprint in runner.cached()
        assert cache.get(artifact.fingerprint) is not None

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            Orchestrator(jobs=0)


class TestExperimentsLayerWiring:
    def test_configure_runner_keeps_the_artifact_store(self):
        import repro.experiments.common as common

        before = common._RUNNER
        try:
            config = tiny_config(seed=9)
            artifact = common.scenario_result(config)
            common.configure_runner(jobs=1)
            assert common._RUNNER is not before
            assert common.scenario_result(config) is artifact
        finally:
            common._RUNNER = before

    def test_planned_configs_default_and_planner(self):
        from repro.experiments import planned_configs
        from repro.experiments.common import standard_config

        # Default plan: the one standard trace.
        assert planned_configs("exp_table1", "small", 42) == [
            standard_config("small", 42)]
        # Planner-declared: exp_fig5 runs only its copies-diverse variant.
        fig5 = planned_configs("exp_fig5", "small", 42)
        assert len(fig5) == 1
        assert fig5[0] != standard_config("small", 42)
        # Scripted experiments plan their scripted configs: the LAN push
        # with and without sites, same cast and start times.
        lan = planned_configs("exp_lan_updates", "small", 42)
        assert [bool(c.script.waves[0].lan_site) for c in lan] == [True, False]
        assert lan[0].script.waves[0].starts == lan[1].script.waves[0].starts
