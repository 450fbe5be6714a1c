"""Tests for the user-behaviour model."""

from __future__ import annotations

import pytest

from repro.core import NetSessionSystem
from repro.workload.behavior import BehaviorConfig, UserBehavior
from repro.workload.population import DAY, Population


def make_population(system, n=50, uploads_enabled=True):
    for _ in range(n):
        system.create_peer(uploads_enabled=uploads_enabled)
    return Population(store=system.population_store)


class TestAbandonment:
    def test_slow_download_gets_abandoned(self, system, provider):
        from repro.core import ContentObject
        obj = ContentObject("big.bin", 4 * 1024 ** 3, provider, p2p_enabled=False)
        system.publish(obj)
        behavior = UserBehavior(system, BehaviorConfig(
            patience_median=30.0, patience_sigma=0.01, abort_vs_pause=1.0))
        peer = system.create_peer()
        peer.boot()
        session = peer.start_download(obj)
        behavior.attach(session)
        system.run(until=DAY)
        assert session.state == "aborted"
        assert behavior.abandonments == 1

    def test_fast_download_outruns_patience(self, system, provider):
        from repro.core import ContentObject
        obj = ContentObject("small.bin", 1024 * 1024, provider)
        system.publish(obj)
        behavior = UserBehavior(system, BehaviorConfig(
            patience_median=DAY, patience_sigma=0.01))
        peer = system.create_peer()
        peer.boot()
        session = peer.start_download(obj)
        behavior.attach(session)
        system.run(until=DAY * 2)
        assert session.state == "completed"
        assert behavior.abandonments == 0

    def test_nearly_done_download_not_abandoned(self, system, provider):
        from repro.core import ContentObject
        obj = ContentObject("f.bin", 100 * 1024 * 1024, provider)
        system.publish(obj)
        behavior = UserBehavior(system, BehaviorConfig(
            patience_median=1.0, patience_sigma=0.01, abort_vs_pause=1.0))
        peer = system.create_peer()
        peer.boot()
        session = peer.start_download(obj)
        # Simulate near-completion before patience fires.
        session.received = set(range(int(obj.num_pieces * 0.95)))
        behavior.attach(session)
        system.run(until=3600.0)
        assert session.state == "completed"

    def test_other_failure_kills_download(self, system, provider):
        from repro.core import ContentObject
        # Big enough that the failure (30s..4h in) strikes mid-download on
        # any access link.
        obj = ContentObject("big.bin", 400 * 1024 ** 3, provider)
        system.publish(obj)
        behavior = UserBehavior(system, BehaviorConfig(
            other_failure_prob=1.0, patience_median=DAY * 100))
        peer = system.create_peer()
        peer.boot()
        session = peer.start_download(obj)
        behavior.attach(session)
        system.run(until=DAY)
        assert session.state == "failed"
        assert session.failure_class == "other"
        assert behavior.other_failures == 1


class TestSettingChanges:
    def test_toggle_rates_roughly_match_table3(self, system):
        population = make_population(system, n=4000, uploads_enabled=True)
        behavior = UserBehavior(system, BehaviorConfig())
        scheduled = behavior.schedule_setting_changes(population, 30.0)
        # ~1.9% of enabled peers toggle at least once; 4000 peers -> ~76.
        assert 20 <= scheduled <= 200

    def test_disabled_peers_rarely_toggle(self, system):
        population = make_population(system, n=4000, uploads_enabled=False)
        behavior = UserBehavior(system, BehaviorConfig())
        scheduled = behavior.schedule_setting_changes(population, 30.0)
        assert scheduled <= 15

    def test_toggles_flip_the_setting(self, system):
        population = make_population(system, n=30, uploads_enabled=True)
        behavior = UserBehavior(system, BehaviorConfig(
            toggle_once_if_enabled=1.0, toggle_twice_if_enabled=0.0))
        behavior.schedule_setting_changes(population, 1.0)
        system.run(until=DAY)
        assert all(not p.uploads_enabled for p in population.peers)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            BehaviorConfig(patience_median=0.0)
        with pytest.raises(ValueError):
            BehaviorConfig(other_failure_prob=2.0)


class TestBusyLinks:
    def test_busy_periods_toggle_backoff(self, system):
        population = make_population(system, n=40)
        for p in population.peers:
            p.boot()
        behavior = UserBehavior(system, BehaviorConfig())
        scheduled = behavior.schedule_link_busy_periods(population, 5.0)
        assert scheduled > 0
        # Run through the trace: every peer must end up un-throttled again.
        system.run(until=5 * DAY)
        assert all(not p.link_busy for p in population.peers)

    def test_zero_probability_schedules_nothing(self, system):
        from repro.core import NetSessionSystem, SystemConfig
        quiet = NetSessionSystem(
            SystemConfig().with_client(link_busy_prob_per_hour=0.0), seed=4)
        for _ in range(10):
            quiet.create_peer()
        population = Population(store=quiet.population_store)
        behavior = UserBehavior(quiet, BehaviorConfig())
        assert behavior.schedule_link_busy_periods(population, 5.0) == 0
