"""Tests for the demand generator."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro.core import NetSessionSystem
from repro.workload.catalog import CatalogConfig, build_catalog
from repro.workload.demand import REGION_TZ, DemandConfig, DemandGenerator
from repro.workload.population import DAY, PopulationConfig, build_population


@pytest.fixture
def env():
    system = NetSessionSystem(seed=9)
    catalog = build_catalog(random.Random(2), CatalogConfig(objects_per_provider=15))
    for p in catalog.providers:
        system.register_provider(p)
    for o in catalog.objects:
        system.publish(o)
    population = build_population(system, catalog.providers,
                                  PopulationConfig(n_peers=200))
    return system, catalog, population


class TestScheduling:
    def test_schedule_all_counts(self, env):
        system, catalog, population = env
        gen = DemandGenerator(system, population, catalog,
                              DemandConfig(total_downloads=100, duration_days=2.0))
        assert gen.schedule_all() == 100

    def test_requests_become_downloads(self, env):
        system, catalog, population = env
        gen = DemandGenerator(system, population, catalog,
                              DemandConfig(total_downloads=120, duration_days=2.0))
        arrivals, pick = [], gen._pick_peer
        gen._pick_peer = lambda region, obj: (arrivals.append(obj),
                                              pick(region, obj))[1]
        assert gen.schedule_all() == 120
        system.run(until=2 * DAY)
        assert len(arrivals) == 120  # every arrival fired within the run
        system.finalize_open_downloads()  # every started session has a record
        assert 100 < len(system.logstore.downloads) <= 120  # few drops

    def test_sessions_reported_via_callback(self, env):
        system, catalog, population = env
        gen = DemandGenerator(system, population, catalog,
                              DemandConfig(total_downloads=50, duration_days=1.0))
        seen = []
        gen.on_session_started = seen.append
        gen.schedule_all()
        system.run(until=DAY)
        system.finalize_open_downloads()
        assert sorted((s.peer.guid, s.obj.cid, s.started_at) for s in seen) == \
            sorted((r.guid, r.cid, r.started_at) for r in system.logstore.downloads)

    def test_provider_shares_steer_volume(self, env):
        system, catalog, population = env
        shares = tuple([1.0] + [0.0001] * 9)
        gen = DemandGenerator(system, population, catalog,
                              DemandConfig(total_downloads=150, duration_days=1.0,
                                           provider_shares=shares))
        gen.schedule_all()
        system.run(until=DAY)
        cps = Counter(r.cp_code for r in system.logstore.downloads)
        assert cps.get(1001, 0) > 0.8 * sum(cps.values())

    def test_region_mix_steers_location(self, env):
        system, catalog, population = env
        # Customer F is Europe-only per Table 2.
        shares = tuple([0.0001] * 5 + [1.0] + [0.0001] * 4)
        gen = DemandGenerator(system, population, catalog,
                              DemandConfig(total_downloads=100, duration_days=1.0,
                                           provider_shares=shares))
        gen.schedule_all()
        system.run(until=DAY)
        regions = Counter()
        for rec in system.logstore.downloads:
            geo = system.geodb.get(rec.ip)
            if geo:
                regions[geo.region] += 1
        assert regions.get("Europe", 0) > 0.9 * sum(regions.values())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DemandConfig(total_downloads=0)
        with pytest.raises(ValueError):
            DemandConfig(duration_days=0.0)

    @pytest.mark.parametrize("shares", [
        (math.nan,) * 10, (-1.0,) * 10, (math.inf,) * 10, (), (0.0,) * 10,
        (1.0, math.nan), (1.0, -1.0),
    ])
    def test_provider_shares_finite_non_negative_and_not_all_zero(self, shares):
        with pytest.raises(ValueError, match="provider_shares"):
            DemandConfig(provider_shares=shares)

    def test_provider_shares_may_zero_out_some_providers(self):
        assert DemandConfig(provider_shares=(0.0, 1.0)).provider_shares == (0.0, 1.0)

    def test_arrival_times_within_horizon(self, env):
        system, catalog, population = env
        gen = DemandGenerator(system, population, catalog,
                              DemandConfig(total_downloads=50, duration_days=1.0))
        gen.schedule_all()
        system.run(until=5 * DAY)
        for rec in system.logstore.downloads:
            assert rec.started_at <= DAY + 1.0


class TestDiurnalCdf:
    def test_cdf_monotone_and_positive(self):
        from repro.workload.demand import _diurnal_cdf
        cdf = _diurnal_cdf(2 * DAY, tz=0.0)
        assert len(cdf) == 48
        assert all(b > a for a, b in zip(cdf, cdf[1:]))

    def test_arrivals_follow_diurnal_mass(self, env):
        """More arrivals land in local-evening hours than early-morning."""
        system, catalog, population = env
        gen = DemandGenerator(system, population, catalog,
                              DemandConfig(total_downloads=400, duration_days=4.0))
        times = [gen._sample_arrival_time("Europe", 4 * DAY)
                 for _ in range(800)]
        tz = REGION_TZ["Europe"]
        def local_hour(t):
            return ((t + tz) % DAY) / 3600.0
        evening = sum(1 for t in times if 17 <= local_hour(t) <= 23)
        morning = sum(1 for t in times if 1 <= local_hour(t) <= 7)
        assert evening > 1.5 * morning
