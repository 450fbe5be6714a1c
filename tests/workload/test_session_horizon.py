"""Set-up pushes only what the run can fire (``duration_days`` plumbing).

``build_population`` and ``seed_warm_caches`` take the length of the run
and keep events dated after it off the heap; the draws behind them are
made either way.  ``duration_days=None`` — every session day and every
retention timer pushed — is the oracle: same records, same event count,
and only the two heap-size counters lower.
"""

from __future__ import annotations

import dataclasses
import random
from contextlib import contextmanager
from unittest import mock

import pytest

import repro.workload.scenario as scenario_mod
from repro.net.sim import Simulator
from repro.runner import event_digest, record_digest, run_scenario_artifact
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
)
from repro.workload.population import DAY, _schedule_peer_days
from repro.workload.scenario import run_scenario
from repro.workload.sharding import ShardingConfig

from tests.scale.conftest import object_store_oracle, tiny_scenario

#: The only ``stats.as_dict()`` keys the push bound may move.
HEAP_KEYS = {"sim_heap_pushes", "pending_events"}


def small_scenario(days: float) -> ScenarioConfig:
    return ScenarioConfig(
        seed=9,
        duration_days=days,
        population=PopulationConfig(n_peers=150),
        demand=DemandConfig(total_downloads=120, duration_days=days),
        catalog=CatalogConfig(objects_per_provider=6),
    )


@contextmanager
def unbounded():
    """``run_scenario`` setting up with ``duration_days=None``: the oracle."""
    build, warm = scenario_mod.build_population, scenario_mod.seed_warm_caches

    def build_population(system, providers, config, duration_days):
        return build(system, providers, config)

    def seed_warm_caches(system, population, catalog, copies, rng,
                         duration_days):
        return warm(system, population, catalog, copies, rng)

    with mock.patch.object(scenario_mod, "build_population", build_population), \
            mock.patch.object(scenario_mod, "seed_warm_caches", seed_warm_caches):
        yield


@pytest.mark.parametrize("days", [3.0, 7.0])
def test_bounded_setup_matches_the_unbounded_oracle(days):
    cfg = small_scenario(days)
    bounded = run_scenario_artifact(cfg)
    with unbounded():
        oracle = run_scenario_artifact(cfg)

    store = bounded.logstore
    assert len(store.downloads) > 50 and len(store.logins) > 100
    assert record_digest(bounded) == record_digest(oracle)

    stats, oracle_stats = (r.stats.as_dict() for r in (bounded, oracle))
    moved = {key for key in oracle_stats if stats[key] != oracle_stats[key]}
    assert moved == HEAP_KEYS
    for key in HEAP_KEYS:
        assert stats[key] < oracle_stats[key], key
    # Every push saved is an event that was still pending at the end.
    assert oracle_stats["sim_heap_pushes"] - stats["sim_heap_pushes"] \
        == oracle_stats["pending_events"] - stats["pending_events"]


@pytest.mark.parametrize("days", [3.0, 7.0])
def test_setup_work_is_bounded_by_the_run_length(days):
    """Counts, not seconds: what set-up pushes and what the run leaves."""
    cfg = small_scenario(days)
    pushes = {}
    real_build = scenario_mod.build_population

    def build_population(system, *args):
        before = system.sim.heap_pushes
        population = real_build(system, *args)
        pushes["sessions"] = system.sim.heap_pushes - before
        return population

    with mock.patch.object(scenario_mod, "build_population", build_population):
        result = run_scenario(cfg)
    # A boot and a shutdown per day the run covers, plus the day a
    # timezone ahead of UTC starts before t=0 ends.
    peers = cfg.population.n_peers
    assert 0 < pushes["sessions"] <= peers * (days + 1) * 2
    with unbounded():
        assert run_scenario(cfg).system.sim.heap_pushes \
            > result.system.sim.heap_pushes + peers * 40
    stats = result.system.stats().as_dict()
    assert stats["pending_events"] < 0.10 * stats["sim_heap_pushes"]


class ScriptedDays:
    """A session stream that boots at 08:00 sharp and stays up ten hours."""

    def random(self):
        return 0.5  # never a skipped day

    def gauss(self, mu, sigma):
        return mu

    def expovariate(self, lambd):
        return 10 * 3600.0


class RecordingPeer:
    def __init__(self, sim):
        self.sim, self.online, self.calls = sim, False, []

    def boot(self):
        self.online = True
        self.calls.append(("boot", self.sim.now))

    def go_offline(self):
        self.online = False
        self.calls.append(("go_offline", self.sim.now))


def scripted_run(until: float, run_to: float | None = None) -> RecordingPeer:
    sim = Simulator()
    peer = RecordingPeer(sim)
    _schedule_peer_days(sim, [peer], 0, 0.0, 10 * 3600.0, ScriptedDays(),
                        until)
    sim.run(until=until if run_to is None else run_to)
    return peer


def test_an_event_dated_exactly_until_fires():
    boots_at_the_end = scripted_run(until=DAY + 8 * 3600.0)
    assert boots_at_the_end.calls == [
        ("boot", 8 * 3600.0), ("go_offline", 18 * 3600.0),
        ("boot", DAY + 8 * 3600.0)]
    leaves_at_the_end = scripted_run(until=DAY + 18 * 3600.0)
    assert leaves_at_the_end.calls[-1] == ("go_offline", DAY + 18 * 3600.0)
    assert leaves_at_the_end.sim.pending_count() == 0


def test_a_session_straddling_the_end_boots_and_stays_online():
    peer = scripted_run(until=DAY + 12 * 3600.0)
    assert peer.calls[-1] == ("boot", DAY + 8 * 3600.0)
    assert peer.online
    # Neither its shutdown nor any later day was queued.
    assert peer.sim.pending_count() == 0 and peer.sim.heap_pushes == 3


def test_no_bound_pushes_the_whole_horizon():
    peer = scripted_run(until=float("inf"), run_to=DAY + 12 * 3600.0)
    assert peer.calls[-1] == ("boot", DAY + 8 * 3600.0)
    assert peer.sim.heap_pushes == 80 and peer.sim.pending_count() == 77


def test_draws_do_not_depend_on_the_bound():
    states = []
    for until in (0.5 * DAY, 3 * DAY, float("inf")):
        rng = random.Random(4)
        _schedule_peer_days(Simulator(), [RecordingPeer(None)], 0, 3600.0,
                            8 * 3600.0, rng, until)
        states.append(rng.getstate())
    assert states[0] == states[1] == states[2]


def test_object_and_columnar_stores_agree_under_the_bound():
    with object_store_oracle():
        obj = run_scenario_artifact(small_scenario(3.0))
    col = run_scenario_artifact(small_scenario(3.0))
    assert record_digest(obj) == record_digest(col)
    assert event_digest(obj) == event_digest(col)


def test_sharded_runs_keep_width_parity_and_the_oracle_records():
    sharded = {shards: dataclasses.replace(
        tiny_scenario(), sharding=ShardingConfig(shards=shards))
        for shards in (1, 4)}
    a1, a4 = (run_scenario_artifact(cfg) for cfg in sharded.values())
    assert record_digest(a1) == record_digest(a4)
    assert event_digest(a1) == event_digest(a4)
    with unbounded():  # shards=1 runs its regions in this process
        oracle = run_scenario_artifact(sharded[1])
    assert record_digest(a1) == record_digest(oracle)
    stats, oracle_stats = a1.stats.as_dict(), oracle.stats.as_dict()
    assert {key for key in stats if stats[key] != oracle_stats[key]} == HEAP_KEYS
