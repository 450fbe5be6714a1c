"""Tests for the broadband access-link models."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.links import (
    AccessLink, BroadbandModel, BroadbandTier, DEFAULT_BROADBAND_TIERS, mbps,
)


class TestUnits:
    def test_mbps_conversion(self):
        assert mbps(8.0) == pytest.approx(1e6)  # 8 Mbit/s = 1 MB/s

    def test_mbps_zero(self):
        assert mbps(0.0) == 0.0


class TestBroadbandModel:
    def test_sampled_link_is_asymmetric_or_equal(self, rng):
        model = BroadbandModel(rng)
        for i in range(50):
            link = model.sample(f"p{i}")
            assert link.up_bps <= link.down_bps

    def test_speed_multiplier_scales_both_directions(self):
        a = BroadbandModel(random.Random(5)).sample("x", speed_multiplier=1.0)
        b = BroadbandModel(random.Random(5)).sample("x", speed_multiplier=2.0)
        assert b.down_bps == pytest.approx(2 * a.down_bps)

    def test_invalid_multiplier_rejected(self, rng):
        with pytest.raises(ValueError):
            BroadbandModel(rng).sample("x", speed_multiplier=0.0)

    def test_tier_labels_come_from_mix(self, rng):
        model = BroadbandModel(rng)
        names = {t.name for t in DEFAULT_BROADBAND_TIERS}
        for i in range(30):
            assert model.sample(f"p{i}").tier in names

    def test_empty_tiers_rejected(self, rng):
        with pytest.raises(ValueError):
            BroadbandModel(rng, tiers=())

    def test_zero_weight_tiers_rejected(self, rng):
        tier = BroadbandTier("t", 0.0, (1.0, 2.0), (0.5, 1.0))
        with pytest.raises(ValueError):
            BroadbandModel(rng, tiers=(tier,))

    def test_single_tier_respects_ranges(self, rng):
        tier = BroadbandTier("only", 1.0, (10.0, 20.0), (1.0, 2.0))
        model = BroadbandModel(rng, tiers=(tier,))
        for i in range(40):
            link = model.sample(f"p{i}")
            assert mbps(10.0) <= link.down_bps <= mbps(20.0)
            assert link.up_bps <= mbps(2.0)

    def test_resources_are_distinct_per_sample(self, rng):
        model = BroadbandModel(rng)
        a = model.sample("a")
        b = model.sample("b")
        assert a.downlink is not b.downlink
        assert a.uplink is not a.downlink

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100000))
    def test_links_always_positive(self, seed):
        model = BroadbandModel(random.Random(seed))
        link = model.sample("p")
        assert link.down_bps > 0
        assert link.up_bps > 0
