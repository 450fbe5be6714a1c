"""Tests for the mobility model."""

from __future__ import annotations

import pytest

from repro.core import NetSessionSystem
from repro.workload.mobility import MobilityConfig, MobilityModel
from repro.workload.population import DAY, Population


def make_population(system, n):
    for _ in range(n):
        system.create_peer().boot()
    return Population(store=system.population_store)


class TestClasses:
    def test_census_sums_to_population(self, system):
        population = make_population(system, 200)
        model = MobilityModel(system)
        census = model.apply(population, 5.0)
        assert sum(census.values()) == 200

    def test_class_mix_roughly_configured(self, system):
        population = make_population(system, 1000)
        cfg = MobilityConfig()
        model = MobilityModel(system, cfg)
        census = model.apply(population, 5.0)
        assert census["commuter"] / 1000 == pytest.approx(
            cfg.commuter_fraction, abs=0.04)
        assert census["stationary"] > 700

    def test_nobody_can_move_takes_the_draws_in_one_call(self, system):
        """All-zero fractions skip the per-peer loop; the census and the
        stream's end state are the scalar loop's."""
        population = make_population(system, 137)
        still = MobilityConfig(commuter_fraction=0.0, roamer_fraction=0.0,
                               traveler_fraction=0.0)
        model, oracle = MobilityModel(system, still), MobilityModel(system, still)
        oracle.rng.setstate(model.rng.getstate())
        pending = system.sim.pending_count()
        census = model.apply(population, 5.0)
        assert {oracle._draw_class() for _ in range(137)} == {"stationary"}
        assert census == {"stationary": 137, "commuter": 0, "roamer": 0,
                          "traveler": 0}
        assert model.rng.getstate() == oracle.rng.getstate()
        assert not model.classes and system.sim.pending_count() == pending

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            MobilityConfig(commuter_fraction=0.9, roamer_fraction=0.2)


class TestMovement:
    def test_commuters_change_as(self, system):
        population = make_population(system, 150)
        model = MobilityModel(system, MobilityConfig(
            commuter_fraction=1.0, roamer_fraction=0.0, traveler_fraction=0.0,
            commuter_as_change_prob=1.0))
        model.apply(population, 3.0)
        system.run(until=3 * DAY)
        multi_as = 0
        by_guid = system.logstore.logins_by_guid()
        for guid, logins in by_guid.items():
            ases = {system.geodb.get(r.ip).asn for r in logins
                    if system.geodb.get(r.ip)}
            if len(ases) > 1:
                multi_as += 1
        assert multi_as > 0.7 * len(by_guid)

    def test_stationary_peers_never_move(self, system):
        population = make_population(system, 80)
        model = MobilityModel(system, MobilityConfig(
            commuter_fraction=0.0, roamer_fraction=0.0, traveler_fraction=0.0))
        model.apply(population, 3.0)
        system.run(until=3 * DAY)
        by_guid = system.logstore.logins_by_guid()
        for guid, logins in by_guid.items():
            ases = {system.geodb.get(r.ip).asn for r in logins
                    if system.geodb.get(r.ip)}
            assert len(ases) == 1

    def test_travelers_move_far(self, system):
        from repro.net.geo import haversine_km
        population = make_population(system, 60)
        model = MobilityModel(system, MobilityConfig(
            commuter_fraction=0.0, roamer_fraction=0.0, traveler_fraction=1.0))
        model.apply(population, 4.0)
        system.run(until=4 * DAY)
        far = 0
        by_guid = system.logstore.logins_by_guid()
        for guid, logins in by_guid.items():
            points = []
            for r in logins:
                geo = system.geodb.get(r.ip)
                if geo:
                    points.append((geo.lat, geo.lon))
            max_d = max(
                (haversine_km(*a, *b) for a in points for b in points),
                default=0.0)
            if max_d > 100.0:
                far += 1
        assert far > 0.5 * len(by_guid)
