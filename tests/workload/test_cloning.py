"""Tests for the cloning/re-imaging model."""

from __future__ import annotations

import pytest

from repro.analysis.guid_graphs import (
    build_secondary_guid_graphs, classify_graph, figure12_pattern_census,
)
from repro.core import NetSessionSystem
from repro.workload.cloning import CloningConfig, CloningModel
from repro.workload.population import DAY, Population


def make_population(system, n):
    for _ in range(n):
        system.create_peer()
    return Population(store=system.population_store)


def boot_daily(system, peers, days):
    for peer in peers:
        for day in range(days):
            system.sim.schedule_at(day * DAY + 3600.0, peer.boot)
            system.sim.schedule_at(day * DAY + 10 * 3600.0, peer.go_offline)


class TestCensus:
    def test_affected_fraction_respected(self, system):
        population = make_population(system, 2000)
        model = CloningModel(system, CloningConfig(affected_fraction=0.1))
        census = model.apply(population, 7.0)
        affected = sum(census.values())
        assert affected == pytest.approx(200, abs=60)

    def test_zero_affected(self, system):
        population = make_population(system, 100)
        model = CloningModel(system, CloningConfig(affected_fraction=0.0))
        census = model.apply(population, 7.0)
        assert sum(census.values()) == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CloningConfig(affected_fraction=1.5)
        with pytest.raises(ValueError):
            CloningConfig(failed_update_weight=-1.0)


class TestPatternsEmerge:
    def run_pattern(self, pattern_weights, days=8):
        system = NetSessionSystem(seed=21)
        population = make_population(system, 40)
        boot_daily(system, population.peers, days)
        cfg = CloningConfig(affected_fraction=1.0, **pattern_weights)
        model = CloningModel(system, cfg)
        model.apply(population, float(days))
        system.run(until=days * DAY)
        return system, model

    def test_failed_update_produces_short_branch(self):
        system, model = self.run_pattern(dict(
            failed_update_weight=1.0, restored_backup_weight=0.0,
            reimaging_weight=0.0, irregular_weight=0.0))
        census = figure12_pattern_census(system.logstore)
        assert census.get("one_short_branch", 0.0) > 0.0

    def test_restored_backup_produces_long_branches(self):
        system, model = self.run_pattern(dict(
            failed_update_weight=0.0, restored_backup_weight=1.0,
            reimaging_weight=0.0, irregular_weight=0.0))
        census = figure12_pattern_census(system.logstore)
        assert census.get("two_long_branches", 0.0) > 0.0

    def test_reimaging_produces_several_branches(self):
        system, model = self.run_pattern(dict(
            failed_update_weight=0.0, restored_backup_weight=0.0,
            reimaging_weight=1.0, irregular_weight=0.0))
        census = figure12_pattern_census(system.logstore)
        assert census.get("several_branches", 0.0) > 0.0

    def test_unaffected_installs_stay_linear(self):
        system = NetSessionSystem(seed=22)
        population = make_population(system, 30)
        boot_daily(system, population.peers, 8)
        system.run(until=8 * DAY)
        census = figure12_pattern_census(system.logstore)
        assert census.get("linear", 0.0) == 1.0


class TestIrregularPattern:
    def test_irregular_produces_some_nonlinear_history(self):
        system = NetSessionSystem(seed=23)
        population = make_population(system, 30)
        boot_daily(system, population.peers, 8)
        model = CloningModel(system, CloningConfig(
            affected_fraction=1.0, failed_update_weight=0.0,
            restored_backup_weight=0.0, reimaging_weight=0.0,
            irregular_weight=1.0))
        model.apply(population, 8.0)
        system.run(until=8 * DAY)
        census = figure12_pattern_census(system.logstore)
        assert census.get("linear", 1.0) < 1.0  # chaos left a mark
