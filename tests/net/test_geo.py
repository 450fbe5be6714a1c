"""Tests for the synthetic world and geolocation service."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.net.geo import (
    City, Country, GeoDatabase, GeoRecord, REGIONS, World,
    build_core_world, haversine_km,
)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(52.52, 13.41, 52.52, 13.41) == 0.0

    def test_known_distance_berlin_paris(self):
        d = haversine_km(52.52, 13.41, 48.86, 2.35)
        assert 850 <= d <= 930  # ~878 km

    def test_antipodal_is_half_circumference(self):
        d = haversine_km(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(20015, rel=0.01)

    @given(
        lat1=st.floats(min_value=-90, max_value=90),
        lon1=st.floats(min_value=-180, max_value=180),
        lat2=st.floats(min_value=-90, max_value=90),
        lon2=st.floats(min_value=-180, max_value=180),
    )
    def test_symmetric_and_bounded(self, lat1, lon1, lat2, lon2):
        d1 = haversine_km(lat1, lon1, lat2, lon2)
        d2 = haversine_km(lat2, lon2, lat1, lon1)
        assert d1 == pytest.approx(d2, abs=1e-6)
        assert 0.0 <= d1 <= 20016


class TestWorld:
    def test_core_world_has_all_regions(self):
        world = build_core_world()
        regions = {c.region for c in world.countries}
        assert regions == set(REGIONS)

    def test_extra_territories_pad_country_count(self):
        base = build_core_world()
        padded = build_core_world(extra_territories=197)
        assert len(padded.countries) == len(base.countries) + 197

    def test_padding_reaches_239(self):
        base = build_core_world()
        padded = build_core_world(extra_territories=239 - len(base.countries))
        assert len(padded.countries) == 239

    def test_no_duplicate_country_codes(self):
        world = build_core_world(extra_territories=100)
        codes = [c.code for c in world.countries]
        assert len(codes) == len(set(codes))

    def test_sampling_respects_weights(self):
        world = build_core_world()
        rng = random.Random(5)
        counts = {}
        n = 5000
        for _ in range(n):
            code = world.sample_country(rng).code
            counts[code] = counts.get(code, 0) + 1
        total_weight = sum(c.peer_weight for c in world.countries)
        us = world.by_code["US"]
        assert counts.get("US", 0) / n == pytest.approx(
            us.peer_weight / total_weight, abs=0.04)

    def test_sample_city_from_country(self):
        world = build_core_world()
        rng = random.Random(5)
        de = world.by_code["DE"]
        for _ in range(20):
            assert world.sample_city(de, rng) in de.cities

    def test_region_weight_positive_everywhere(self):
        world = build_core_world()
        for region in REGIONS:
            assert world.region_weight(region) > 0

    def test_country_requires_cities(self):
        with pytest.raises(ValueError):
            Country("XX", "Empty", "Europe", 1.0, ())

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError):
            World([])

    def test_duplicate_codes_rejected(self):
        c = Country("XX", "A", "Europe", 1.0, (City("a", 0, 0),))
        with pytest.raises(ValueError):
            World([c, c])


class TestGeoDatabase:
    def make_record(self, **kw):
        defaults = dict(country_code="DE", region="Europe", city="Berlin",
                        lat=52.52, lon=13.41, timezone="Europe/Berlin",
                        network="DE-ISP-1", asn=1100)
        defaults.update(kw)
        return GeoRecord(**defaults)

    def test_register_and_lookup(self):
        db = GeoDatabase()
        rec = self.make_record()
        db.register("10.0.0.1", rec)
        assert db.get("10.0.0.1") == rec

    def test_get_returns_none_for_unknown(self):
        assert GeoDatabase().get("1.2.3.4") is None
