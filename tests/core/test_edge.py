"""Tests for the edge-server layer."""

from __future__ import annotations

import random

import pytest

from repro.core.content import ContentObject, ContentProvider
from repro.core.edge import AuthorizationError, AuthToken, EdgeNetwork, EdgeServer


@pytest.fixture
def edge():
    return EdgeNetwork(["eu", "na"], random.Random(1), servers_per_region=2)


@pytest.fixture
def obj():
    provider = ContentProvider(cp_code=5, name="P")
    return ContentObject("file.bin", 50_000_000, provider, p2p_enabled=True)


class TestCatalog:
    def test_publish_and_lookup(self, edge, obj):
        edge.publish(obj)
        assert edge.lookup(obj.cid) is obj

    def test_lookup_unpublished_raises(self, edge, obj):
        with pytest.raises(KeyError):
            edge.lookup(obj.cid)


class TestAuthorization:
    def test_authorize_published_object(self, edge, obj):
        edge.publish(obj)
        token = edge.authorize("guid1", obj)
        assert edge.verify_token(token, "guid1", obj.cid)

    def test_authorize_unpublished_raises(self, edge, obj):
        with pytest.raises(AuthorizationError):
            edge.authorize("guid1", obj)

    def test_token_bound_to_guid(self, edge, obj):
        edge.publish(obj)
        token = edge.authorize("guid1", obj)
        assert not edge.verify_token(token, "guid2", obj.cid)

    def test_token_bound_to_cid(self, edge, obj):
        edge.publish(obj)
        token = edge.authorize("guid1", obj)
        assert not edge.verify_token(token, "guid1", "other-cid")

    def test_forged_token_rejected(self, edge, obj):
        edge.publish(obj)
        forged = AuthToken(guid="guid1", cid=obj.cid, digest="0" * 32)
        assert not edge.verify_token(forged, "guid1", obj.cid)

    def test_token_from_other_secret_rejected(self, edge, obj):
        edge.publish(obj)
        other = AuthToken.issue("guid1", obj.cid, "wrong-secret")
        assert not edge.verify_token(other, "guid1", obj.cid)


class TestServing:
    def test_server_for_region_round_robins(self, edge):
        a = edge.server_for("eu")
        b = edge.server_for("eu")
        c = edge.server_for("eu")
        assert a is not b
        assert a is c
        assert a.network_region == "eu"

    def test_unknown_region_falls_back_to_any_server(self, edge):
        server = edge.server_for("mars")
        assert server in edge.servers

    def test_record_served_accumulates(self, edge):
        server = edge.servers[0]
        server.record_served("g", "c", 100)
        server.record_served("g", "c", 50)
        assert server.served_bytes == {("g", "c"): 150}

    def test_negative_bytes_rejected(self, edge):
        with pytest.raises(ValueError):
            edge.servers[0].record_served("g", "c", -1)

    def test_trusted_bytes_sums_across_fleet(self, edge):
        edge.servers[0].record_served("g", "c", 100)
        edge.servers[-1].record_served("g", "c", 11)
        assert edge.trusted_bytes_served("g", "c") == 111

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            EdgeNetwork(["eu"], random.Random(1), servers_per_region=0)

    def test_finite_egress_capacity(self):
        edge = EdgeNetwork(["eu"], random.Random(1), egress_mbps=100.0)
        assert edge.servers[0].egress.capacity == pytest.approx(100e6 / 8)

    def test_default_egress_unconstrained(self, edge):
        assert edge.servers[0].egress.capacity is None
