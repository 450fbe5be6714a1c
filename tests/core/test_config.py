"""Tests for configuration validation and copy helpers."""

from __future__ import annotations

import pytest

from repro.core.config import (
    ClientConfig, ControlChannelConfig, ControlPlaneConfig, SystemConfig,
)


class TestClientConfig:
    def test_defaults_valid(self):
        ClientConfig()

    def test_negative_upload_connections_rejected(self):
        with pytest.raises(ValueError):
            ClientConfig(max_upload_connections=-1)

    def test_zero_upload_connections_allowed(self):
        # A peer can be configured to never upload.
        assert ClientConfig(max_upload_connections=0).max_upload_connections == 0

    def test_upload_rate_fraction_bounds(self):
        with pytest.raises(ValueError):
            ClientConfig(upload_rate_fraction=0.0)
        with pytest.raises(ValueError):
            ClientConfig(upload_rate_fraction=1.5)

    def test_uploads_per_object_positive(self):
        with pytest.raises(ValueError):
            ClientConfig(max_uploads_per_object=0)

    def test_cache_retention_positive(self):
        # NaN passed a ``<= 0`` check, and the first completed download
        # then crashed the run scheduling its eviction at t=nan.
        for retention in (0.0, float("nan")):
            with pytest.raises(ValueError):
                ClientConfig(cache_retention=retention)


class TestControlPlaneConfig:
    def test_defaults_match_paper(self):
        cfg = ControlPlaneConfig()
        assert cfg.peers_per_query == 40  # "up to 40 peers are returned"

    def test_peers_per_query_positive(self):
        with pytest.raises(ValueError):
            ControlPlaneConfig(peers_per_query=0)

    def test_diversity_probability_bounds(self):
        with pytest.raises(ValueError):
            ControlPlaneConfig(diversity_probability=1.1)

    @pytest.mark.parametrize("field, value", [
        ("reconnect_rate_limit", 0.0),
        ("reconnect_rate_limit", -5.0),
        ("remote_search_threshold", -1),
        # A NaN TTL passed the DN's ``<= 0`` check: registrations never
        # expired and every peer armed ``every(nan)``.
        ("registration_ttl", 0.0),
        ("registration_ttl", -1.0),
        ("registration_ttl", float("nan")),
        ("registration_ttl", float("inf")),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            ControlPlaneConfig(**{field: value})


class TestControlChannelConfig:
    @pytest.mark.parametrize("field", ["latency", "request_timeout",
                                       "probe_interval"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_timers(self, field, value):
        with pytest.raises(ValueError, match=field):
            ControlChannelConfig(**{field: value})


class TestSystemConfig:
    def test_with_client_returns_modified_copy(self):
        cfg = SystemConfig()
        changed = cfg.with_client(max_upload_connections=99)
        assert changed.client.max_upload_connections == 99
        assert cfg.client.max_upload_connections != 99

    def test_with_control_plane_returns_modified_copy(self):
        cfg = SystemConfig()
        changed = cfg.with_control_plane(peers_per_query=5)
        assert changed.control_plane.peers_per_query == 5
        assert cfg.control_plane.peers_per_query == 40

    def test_p2p_enabled_by_default(self):
        assert SystemConfig().p2p_globally_enabled

    @pytest.mark.parametrize("mbps", [0.0, -1.0, float("nan"), float("inf")])
    def test_edge_egress_is_none_or_finite_and_positive(self, mbps):
        # 0 used to build an *unconstrained* server (``if capacity`` fell
        # through to ``Resource(..., None)``) and NaN a NaN-capacity one.
        with pytest.raises(ValueError, match="edge_egress_mbps"):
            SystemConfig(edge_egress_mbps=mbps)
        assert SystemConfig(edge_egress_mbps=None).edge_egress_mbps is None
