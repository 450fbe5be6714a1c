"""Tests for configuration validation and copy helpers."""

from __future__ import annotations

import pytest

from repro.core.config import ClientConfig, ControlPlaneConfig, SystemConfig


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
        with pytest.raises(ValueError):
            ClientConfig(cache_retention=0.0)


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
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            ControlPlaneConfig(**{field: value})


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
