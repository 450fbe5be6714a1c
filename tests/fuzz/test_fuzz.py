"""Tests for the strict-invariant scenario fuzzer.

The fast tier checks the machinery (determinism, shrinking, reproducer
round-trip) on a couple of seeds; the actual bug-hunting sweep is marked
``fuzz`` and runs in its own CI job.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.adversary.profiles import PROFILES
from repro.fuzz import (
    FuzzSpec, generate, reproducer_script, run_seeds, run_spec, shrink,
)

SMOKE_SEEDS = (0, 1, 2)

#: Seeds the CI sweep covers; REPRO_FUZZ_JOBS widens the worker pool.
SWEEP_SEEDS = range(30)


class TestGenerate:
    def test_same_seed_same_spec(self):
        assert generate(7) == generate(7)

    def test_different_seeds_differ(self):
        specs = {generate(s) for s in range(20)}
        assert len(specs) == 20

    def test_specs_within_bounds(self):
        for seed in range(50):
            spec = generate(seed)
            assert 2 <= spec.n_seeders <= 14
            assert 2 <= spec.n_downloaders <= 14
            assert 1 <= spec.n_objects <= 3
            assert 2.0 <= spec.duration_hours <= 10.0
            assert spec.fault_at < 0.4 * spec.duration_hours * 3600.0
            assert spec.adversary_fraction in (0.0, 0.15, 0.3)
            assert spec.adversary_profile in (None,) + PROFILES

    def test_label_mentions_the_seed(self):
        assert "seed=9" in generate(9).label()


class TestRunSpec:
    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_smoke_seeds_run_clean(self, seed):
        result = run_spec(generate(seed))
        assert result.ok, f"{result.spec.label()}: {result.failure}"
        assert result.completed_downloads > 0

    def test_same_seed_same_outcome(self):
        spec = generate(1)
        a, b = run_spec(spec), run_spec(spec)
        assert a.completed_downloads == b.completed_downloads
        assert a.warnings == b.warnings

    def test_adversarial_smoke_holds_strict_invariants(self):
        # An infested swarm with the defense engaged must stay invariant-
        # clean: quarantine eviction, reputation bounds, accounting
        # conservation all hold while adversaries actively misbehave.
        spec = dataclasses.replace(
            generate(0), adversary_fraction=0.15, defense=True)
        result = run_spec(spec)
        assert result.ok, f"{result.spec.label()}: {result.failure}"
        assert result.completed_downloads > 0

    def test_device_smoke_holds_strict_invariants(self):
        # A heterogeneous-tier mini-scenario (router-heavy mix: uplink
        # caps, cache budgets, class-driven sessions) must stay clean
        # under strict invariants, device-budget checker included.
        spec = dataclasses.replace(generate(0), device_mix="router_heavy")
        result = run_spec(spec)
        assert result.ok, f"{result.spec.label()}: {result.failure}"
        assert result.completed_downloads > 0

    def test_device_knob_is_seed_stable(self):
        # device_mix draws last: toggling its fuzzability must not move
        # any older field of the same seed (the pre-device byte streams).
        for seed in SMOKE_SEEDS:
            spec = generate(seed)
            assert spec.device_mix in (
                "off", "balanced", "router_heavy", "mobile_heavy")
            off = dataclasses.replace(spec, device_mix="off")
            assert off.label() == spec.label()

    def test_adversary_knobs_are_orthogonal_to_honest_runs(self):
        # Toggling the defense on a fully honest spec must not perturb the
        # simulation: the reputation layer only *observes* honest traffic.
        spec = dataclasses.replace(generate(1), adversary_fraction=0.0)
        a = run_spec(dataclasses.replace(spec, defense=False))
        b = run_spec(dataclasses.replace(spec, defense=True))
        assert a.ok and b.ok
        assert a.completed_downloads == b.completed_downloads
        assert a.warnings == b.warnings


class TestShrink:
    def test_shrinks_to_fixed_point(self):
        # Synthetic oracle: "fails" whenever the fault scenario is present,
        # so everything else should shrink away around it.
        spec = generate(3)
        spec = dataclasses.replace(spec, fault_scenario="cn_flap",
                                   churn_events=4, pause_resume_events=4)
        shrunk = shrink(
            spec, still_fails=lambda s: s.fault_scenario is not None)
        assert shrunk.fault_scenario == "cn_flap"
        assert shrunk.churn_events == 0
        assert shrunk.pause_resume_events == 0
        assert shrunk.n_objects == 1
        assert shrunk.n_downloaders == 2
        assert shrunk.n_seeders == 2
        assert shrunk.object_mb == 16
        assert shrunk.duration_hours == 2.0

    def test_unshrinkable_spec_returned_unchanged(self):
        spec = FuzzSpec(seed=0, n_seeders=2, n_downloaders=2, object_mb=16,
                        n_objects=1, duration_hours=2.0)
        assert shrink(spec, still_fails=lambda s: True) == spec

    def test_shrinks_adversaries_away_first(self):
        # An adversarial slice that is irrelevant to the failure must
        # vanish from the reproducer: shrink offers fraction=0/defense=off
        # early, so the oracle keeps the minimal honest scenario.
        spec = dataclasses.replace(
            generate(3), adversary_fraction=0.3,
            adversary_profile="corrupter", defense=True,
            fault_scenario="cn_flap")
        shrunk = shrink(
            spec, still_fails=lambda s: s.fault_scenario is not None)
        assert shrunk.adversary_fraction == 0.0
        assert shrunk.adversary_profile is None
        assert shrunk.defense is False

    def test_shrinks_device_mix_to_all_desktop(self):
        # A device mix irrelevant to the failure must leave the
        # reproducer: shrink offers device_mix="off" early, so the oracle
        # keeps the minimal homogeneous (all-desktop) scenario.
        spec = dataclasses.replace(
            generate(3), device_mix="mobile_heavy", fault_scenario="cn_flap")
        shrunk = shrink(
            spec, still_fails=lambda s: s.fault_scenario is not None)
        assert shrunk.device_mix == "off"

    def test_attempt_budget_respected(self):
        calls = []

        def oracle(s):
            calls.append(s)
            return True

        shrink(generate(4), still_fails=oracle, max_attempts=5)
        assert len(calls) <= 5


class TestReproducer:
    def test_script_round_trips_through_exec(self):
        spec = generate(2)
        script = reproducer_script(spec)
        # The script re-raises on failure; a clean seed prints and returns.
        namespace = {"__name__": "__repro_fuzz_check__"}
        exec(compile(script, "<reproducer>", "exec"), namespace)
        assert namespace["result"].ok

    def test_script_embeds_every_field(self):
        spec = generate(5)
        script = reproducer_script(spec)
        for name in ("seed", "fault_scenario", "channel_loss", "every_events"):
            assert name in script


class TestRunSeeds:
    def test_order_and_parity_across_jobs(self):
        serial = run_seeds([5, 6], jobs=1)
        pooled = run_seeds([5, 6], jobs=2)
        assert [r.spec for r in serial] == [r.spec for r in pooled]
        assert ([r.completed_downloads for r in serial]
                == [r.completed_downloads for r in pooled])
        assert [r.warnings for r in serial] == [r.warnings for r in pooled]


@pytest.mark.fuzz
def test_fuzz_sweep():
    """The CI sweep: every seed must hold all invariants under strict mode.

    Seeds fan out across a process pool (``REPRO_FUZZ_JOBS``, default
    serial); results come back in seed order, so the first failure
    reported is the same at any width.  Shrinking the failure stays
    serial — each step depends on the previous verdict — and the
    assertion message carries the shrunk spec plus a standalone
    reproducer, so the finding is actionable straight from the CI log.
    """
    jobs = int(os.environ.get("REPRO_FUZZ_JOBS", "1"))
    results = run_seeds(list(SWEEP_SEEDS), jobs=jobs)
    for result in results:
        if not result.ok:
            shrunk = shrink(result.spec)
            pytest.fail(
                f"invariant violation: {result.failure}\n"
                f"spec: {result.spec.label()}\n"
                f"shrunk: {shrunk!r}\n\n{reproducer_script(shrunk)}")
        assert result.completed_downloads > 0, result.spec.label()
