"""Tests for the strict-invariant scenario fuzzer.

The fast tier checks the machinery (determinism, shrinking, reproducer
round-trip) on a couple of seeds; the actual bug-hunting sweep is marked
``fuzz`` and runs in its own CI job.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.adversary.profiles import PROFILES, AdversaryConfig
from repro.core.config import ControlChannelConfig, DefenseConfig
from repro.fuzz import (
    SIZE_FLOORS, baseline, generate, reproducer_script, run_seeds, run_spec,
    shrink,
)
from repro.vod.config import VodConfig
from repro.workload.devices import PRESET_MIXES, mobile_heavy, router_heavy
from repro.workload.population import PopulationConfig
from repro.workload.scenario import ScenarioConfig
from repro.workload.sharding import ShardingConfig

SMOKE_SEEDS = (0, 1, 2)

#: Seeds the CI sweep covers; REPRO_FUZZ_JOBS widens the worker pool.
SWEEP_SEEDS = range(100)


def _with(config: ScenarioConfig, **system) -> ScenarioConfig:
    """``config`` with ``system`` leaves replaced."""
    return dataclasses.replace(
        config, system=dataclasses.replace(config.system, **system))


class TestGenerate:
    def test_same_seed_same_spec(self):
        assert generate(7) == generate(7)

    def test_different_seeds_differ(self):
        configs = {repr(generate(s)) for s in range(20)}
        assert len(configs) == 20

    def test_specs_within_bounds(self):
        for seed in range(50):
            config = generate(seed)
            assert config.seed == seed
            assert 40 <= config.population.n_peers <= 200
            assert 10 <= config.demand.total_downloads <= 120
            assert 2.0 <= config.duration_days * 24 <= 10.0
            assert config.demand.duration_days == config.duration_days
            assert config.system.invariants.mode == "strict"
            if config.sharding is not None:
                assert config.faults == ()
            if config.faults:
                first = min(fault.start for fault in config.faults)
                assert first < 0.4 * config.duration_days * 86400.0
            if config.adversary is not None:
                assert config.adversary.fraction in (0.15, 0.3)
                assert len(config.adversary.profile_mix) == len(PROFILES)

    def test_draws_reach_every_optional_block(self):
        configs = [generate(s) for s in range(50)]
        for block in ("faults", "vod", "adversary", "sharding"):
            assert any(getattr(c, block) for c in configs), block
        assert any(c.population.device for c in configs)


class TestRunSpec:
    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_smoke_seeds_run_clean(self, seed):
        result = run_spec(generate(seed))
        assert result.ok, f"seed {seed}: {result.failure}"
        assert result.completed_downloads > 0

    def test_same_seed_same_outcome(self):
        config = generate(1)
        a, b = run_spec(config), run_spec(config)
        assert a.record_digest == b.record_digest
        assert a.event_digest == b.event_digest
        assert a.warnings == b.warnings

    def test_adversarial_smoke_holds_strict_invariants(self):
        # An infested swarm with the defense engaged must stay invariant-
        # clean: quarantine eviction, reputation bounds, accounting
        # conservation all hold while adversaries actively misbehave.
        config = _with(
            dataclasses.replace(
                generate(0), adversary=AdversaryConfig(fraction=0.15)),
            defense=DefenseConfig(enabled=True))
        result = run_spec(config)
        assert result.ok, result.failure
        assert result.completed_downloads > 0

    def test_device_smoke_holds_strict_invariants(self):
        # A heterogeneous-tier run (router-heavy mix: uplink caps, cache
        # budgets, class-driven sessions) must stay clean under strict
        # invariants, device-budget checker included, sharded or not.
        config = generate(0)
        config = dataclasses.replace(config, population=dataclasses.replace(
            config.population, device=router_heavy()))
        for sharding in (None, ShardingConfig(shards=2)):
            result = run_spec(dataclasses.replace(
                config, sharding=sharding, faults=()))
            assert result.ok, result.failure
            assert result.completed_downloads > 0

    def test_device_knob_is_seed_stable(self):
        # The device leaf is one of the preset mixes, drawn from the seed
        # alone: the same seed always draws the same tiers.
        presets = [make() for make in PRESET_MIXES.values()]
        for seed in range(20):
            device = generate(seed).population.device
            assert device is None or device in presets
            assert device == generate(seed).population.device

    def test_adversary_knobs_are_orthogonal_to_honest_runs(self):
        # Toggling the defense on a fully honest config must not perturb
        # the trace: the reputation layer only *observes* honest traffic.
        config = dataclasses.replace(generate(1), adversary=None)
        a = run_spec(_with(config, defense=DefenseConfig(enabled=False)))
        b = run_spec(_with(config, defense=DefenseConfig(enabled=True)))
        assert a.ok and b.ok
        assert a.record_digest == b.record_digest
        assert a.completed_downloads == b.completed_downloads
        assert a.warnings == b.warnings


def _loaded(seed: int) -> ScenarioConfig:
    """``generate(seed)`` with every optional block on, a fault schedule,
    an impaired channel and the defense enabled."""
    config = generate(seed)
    config = dataclasses.replace(
        config,
        faults=generate(0).faults,
        vod=VodConfig(sessions=4, policy="isp_local"),
        adversary=AdversaryConfig(fraction=0.3),
        sharding=ShardingConfig(shards=2),
        population=dataclasses.replace(config.population,
                                       device=mobile_heavy()),
    )
    return _with(config,
                 channel=ControlChannelConfig(latency=0.25, loss_prob=0.1),
                 defense=DefenseConfig(enabled=True))


class TestShrink:
    def test_shrinks_to_fixed_point(self):
        # Synthetic oracle: "fails" whenever a fault schedule is present,
        # so everything else should shrink away around it.
        config = _loaded(3)
        assert config.faults
        calls = []

        def oracle(c):
            calls.append(c)
            return bool(c.faults)

        shrunk = shrink(config, still_fails=oracle, max_attempts=200)
        assert len(calls) < 200
        assert shrunk.faults == config.faults
        assert shrunk.vod is None
        assert shrunk.adversary is None
        assert shrunk.sharding is None
        assert shrunk.population.device is None
        assert shrunk.system.defense.enabled is False
        assert shrunk.system.channel == ControlChannelConfig()
        assert {"n_peers": shrunk.population.n_peers,
                "total_downloads": shrunk.demand.total_downloads,
                "duration_days": shrunk.duration_days} == SIZE_FLOORS
        assert shrunk.demand.duration_days == SIZE_FLOORS["duration_days"]
        # Everything but the fault schedule is back at the baseline.
        assert dataclasses.replace(shrunk, faults=()) == baseline(3)
        assert shrink(shrunk, still_fails=oracle) == shrunk

    def test_unshrinkable_spec_returned_unchanged(self):
        config = baseline(0)
        assert shrink(config, still_fails=lambda c: True) == config
        # A size leaf already under its floor is never grown to it.
        tiny = dataclasses.replace(
            config, population=PopulationConfig(n_peers=10))
        assert shrink(tiny, still_fails=lambda c: True) == tiny

    def test_shrinks_adversaries_away_first(self):
        # An adversarial slice that is irrelevant to the failure must
        # vanish from the reproducer.  Optional blocks are reset before
        # any leaf: with five attempts the oracle rejects only the fault
        # reset, and the other four blocks go before a leaf is tried.
        shrunk = shrink(_loaded(3), still_fails=lambda c: bool(c.faults),
                        max_attempts=5)
        assert shrunk.faults
        assert shrunk.adversary is None
        assert shrunk.vod is None and shrunk.sharding is None
        assert shrunk.population.device is None
        assert shrunk.system.defense.enabled  # leaves come after blocks

    def test_shrinks_device_mix_to_all_desktop(self):
        # A device mix irrelevant to the failure must leave the
        # reproducer: the homogeneous population (device=None) remains.
        base = baseline(3)
        config = dataclasses.replace(
            base, faults=generate(0).faults,
            population=dataclasses.replace(base.population,
                                           device=mobile_heavy()))
        shrunk = shrink(config, still_fails=lambda c: bool(c.faults))
        assert shrunk == dataclasses.replace(base, faults=config.faults)

    def test_attempt_budget_respected(self):
        calls = []

        def oracle(c):
            calls.append(c)
            return True

        shrink(generate(4), still_fails=oracle, max_attempts=5)
        assert len(calls) <= 5


class TestReproducer:
    def test_script_round_trips_through_exec(self):
        config = generate(2)
        script = reproducer_script(config)
        # The script re-raises on failure; a clean seed prints and returns.
        namespace = {"__name__": "__repro_fuzz_check__"}
        exec(compile(script, "<reproducer>", "exec"), namespace)
        assert namespace["config"] == config
        assert namespace["result"].ok

    def test_script_embeds_every_field(self):
        # The script embeds repr(config), which evaluates back to an equal
        # config under the script's own imports.
        for seed in range(100):
            config = generate(seed)
            script = reproducer_script(config)
            namespace: dict = {}
            exec(script.split("\nconfig = ")[0], namespace)
            assert eval(repr(config), namespace) == config, seed
        for field in dataclasses.fields(ScenarioConfig):
            assert f"{field.name}=" in script


class TestRunSeeds:
    def test_order_and_parity_across_jobs(self):
        serial = run_seeds([5, 6], jobs=1)
        pooled = run_seeds([5, 6], jobs=2)
        assert [r.config for r in serial] == [generate(5), generate(6)]
        assert [r.config for r in serial] == [r.config for r in pooled]
        assert ([r.record_digest for r in serial]
                == [r.record_digest for r in pooled])
        assert ([r.event_digest for r in serial]
                == [r.event_digest for r in pooled])
        assert all(r.record_digest for r in serial)
        assert [r.warnings for r in serial] == [r.warnings for r in pooled]


@pytest.mark.fuzz
def test_fuzz_sweep():
    """The CI sweep: every seed must hold all invariants under strict mode.

    Seeds fan out across a process pool (``REPRO_FUZZ_JOBS``, default
    serial); results come back in seed order, so the first failure
    reported is the same at any width.  Shrinking the failure stays
    serial — each step depends on the previous verdict — and the
    assertion message carries the shrunk config plus a standalone
    reproducer, so the finding is actionable straight from the CI log.
    """
    jobs = int(os.environ.get("REPRO_FUZZ_JOBS", "1"))
    results = run_seeds(list(SWEEP_SEEDS), jobs=jobs)
    for result in results:
        if not result.ok:
            shrunk = shrink(result.config)
            pytest.fail(
                f"invariant violation: {result.failure}\n"
                f"seed: {result.config.seed}\n\n{reproducer_script(shrunk)}")
        assert result.completed_downloads > 0, result.config.seed
