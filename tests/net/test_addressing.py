"""Tests for IP allocation and geo registration."""

from __future__ import annotations

import random

import pytest

from repro.net.addressing import IPAllocator
from repro.net.geo import GeoDatabase, build_core_world
from repro.net.topology import build_topology


@pytest.fixture
def setup():
    world = build_core_world()
    topology = build_topology(world, random.Random(1))
    geodb = GeoDatabase()
    allocator = IPAllocator(geodb, random.Random(2))
    country = world.by_code["DE"]
    asys = topology.eyeball_ases("DE")[0]
    return geodb, allocator, country, asys


class TestAllocation:
    def test_addresses_are_unique(self, setup):
        geodb, allocator, country, asys = setup
        city = country.cities[0]
        ips = {allocator.assign(asys, country, city) for _ in range(300)}
        assert len(ips) == 300

    def test_every_address_registered_in_geodb(self, setup):
        geodb, allocator, country, asys = setup
        ip = allocator.assign(asys, country, country.cities[0])
        rec = geodb.get(ip)
        assert rec.country_code == "DE"
        assert rec.asn == asys.asn
        assert rec.network == asys.name

    def test_coordinates_jittered_near_city(self, setup):
        geodb, allocator, country, asys = setup
        city = country.cities[0]
        for _ in range(30):
            ip = allocator.assign(asys, country, city)
            rec = geodb.get(ip)
            assert abs(rec.lat - city.lat) <= 0.06
            assert abs(rec.lon - city.lon) <= 0.06

    def test_jitter_produces_multiple_locations_per_city(self, setup):
        geodb, allocator, country, asys = setup
        city = country.cities[0]
        locs = set()
        for _ in range(60):
            ip = allocator.assign(asys, country, city)
            rec = geodb.get(ip)
            locs.add((rec.lat, rec.lon))
        assert len(locs) > 5  # suburb granularity, not one point

    def test_as_prefix_identifiable(self, setup):
        geodb, allocator, country, asys = setup
        ip = allocator.assign(asys, country, country.cities[0])
        hi, lo = divmod(asys.asn, 256)
        assert ip.startswith(f"10.{hi}.{lo}.")

    def test_overflow_past_256_hosts(self, setup):
        geodb, allocator, country, asys = setup
        ips = [allocator.assign(asys, country, country.cities[0]) for _ in range(300)]
        assert len(set(ips)) == 300
        assert any(ip.count(".") == 4 for ip in ips)  # extended form used
