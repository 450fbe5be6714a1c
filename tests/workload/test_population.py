"""Tests for population synthesis and the session process."""

from __future__ import annotations

import math
import random

import pytest

from repro.core import NetSessionSystem
from repro.workload.catalog import CatalogConfig, build_catalog
from repro.workload.population import (
    DAY, PopulationConfig, build_population, diurnal_rate,
)


@pytest.fixture
def built():
    system = NetSessionSystem(seed=5)
    catalog = build_catalog(random.Random(1), CatalogConfig(objects_per_provider=10))
    population = build_population(
        system, catalog.providers, PopulationConfig(n_peers=150))
    return system, population


class TestSynthesis:
    def test_population_size(self, built):
        _system, population = built
        assert population.peer_count() == 150

    def test_upload_mix_reflects_providers(self, built):
        _system, population = built
        enabled = sum(1 for p in population.peers if p.uploads_enabled)
        # Weighted mean of Table 4 rates is ~30%; loose bounds at n=150.
        assert 0.1 <= enabled / 150 <= 0.6

    def test_broken_fraction_applied(self):
        system = NetSessionSystem(seed=5)
        catalog = build_catalog(random.Random(1), CatalogConfig(objects_per_provider=5))
        population = build_population(
            system, catalog.providers,
            PopulationConfig(n_peers=300, broken_fraction=0.5,
                             broken_corruption_prob=0.9))
        broken = sum(1 for p in population.peers
                     if p.piece_corruption_prob == 0.9)
        assert 100 <= broken <= 200

    def test_attacker_fraction_applied(self):
        system = NetSessionSystem(seed=5)
        catalog = build_catalog(random.Random(1), CatalogConfig(objects_per_provider=5))
        population = build_population(
            system, catalog.providers,
            PopulationConfig(n_peers=200, attacker_fraction=0.25))
        attackers = sum(1 for p in population.peers if p.accounting_attacker)
        assert 20 <= attackers <= 80

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PopulationConfig(n_peers=0)
        with pytest.raises(ValueError):
            PopulationConfig(mean_daily_uptime_hours=25.0)

    @pytest.mark.parametrize("field", ["broken_fraction", "attacker_fraction",
                                       "broken_corruption_prob"])
    @pytest.mark.parametrize("value", [1.5, 2.0, -1.0, math.nan, math.inf])
    def test_probabilities_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PopulationConfig(**{field: value})


class TestSessions:
    def test_peers_come_online_during_first_day(self, built):
        system, population = built
        system.run(until=1.5 * DAY)
        assert system.online_peer_count() > 0.3 * population.peer_count()

    def test_daily_cycle_produces_multiple_logins(self, built):
        system, population = built
        system.run(until=4 * DAY)
        by_guid = system.logstore.logins_by_guid()
        multi = sum(1 for logins in by_guid.values() if len(logins) >= 2)
        assert multi > 0.3 * len(by_guid)

    def test_always_on_peers_stay_online(self, built):
        system, population = built
        system.run(until=3 * DAY)
        for peer, always_on in zip(population.peers, population.store.always_on):
            if always_on:
                assert peer.online


class TestDiurnal:
    def test_rate_bounded(self):
        for hour in range(24):
            rate = diurnal_rate(hour * 3600.0)
            assert 0.1 <= rate <= 1.0

    def test_evening_peak_exceeds_morning_trough(self):
        assert diurnal_rate(20 * 3600.0) > 2 * diurnal_rate(4 * 3600.0)

    def test_timezone_shift_moves_peak(self):
        # 8am UTC is evening in a +12h zone.
        assert diurnal_rate(8 * 3600.0, tz_offset=12 * 3600.0) > diurnal_rate(8 * 3600.0)
