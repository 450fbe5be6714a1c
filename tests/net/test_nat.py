"""Tests for the NAT taxonomy and traversal compatibility."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from repro.net.nat import DEFAULT_NAT_MIX, NATModel, NATProfile, NATType, can_connect


class TestCompatibilityMatrix:
    def test_open_connects_to_everything_unblocked(self):
        for t in NATType:
            if t is NATType.BLOCKED:
                continue
            assert can_connect(NATType.OPEN, t)

    def test_blocked_connects_to_nothing(self):
        for t in NATType:
            assert not can_connect(NATType.BLOCKED, t)
            assert not can_connect(t, NATType.BLOCKED)

    def test_symmetric_pair_fails(self):
        assert not can_connect(NATType.SYMMETRIC, NATType.SYMMETRIC)

    def test_symmetric_port_restricted_fails(self):
        assert not can_connect(NATType.SYMMETRIC, NATType.PORT_RESTRICTED)
        assert not can_connect(NATType.PORT_RESTRICTED, NATType.SYMMETRIC)

    def test_symmetric_with_cone_succeeds(self):
        assert can_connect(NATType.SYMMETRIC, NATType.FULL_CONE)
        assert can_connect(NATType.SYMMETRIC, NATType.RESTRICTED_CONE)

    def test_cone_pairs_succeed(self):
        cones = (NATType.FULL_CONE, NATType.RESTRICTED_CONE, NATType.PORT_RESTRICTED)
        for a, b in itertools.product(cones, cones):
            assert can_connect(a, b)

    @given(a=st.sampled_from(list(NATType)), b=st.sampled_from(list(NATType)))
    def test_matrix_is_symmetric(self, a, b):
        assert can_connect(a, b) == can_connect(b, a)


class TestNATModel:
    def test_sample_returns_profile(self, rng):
        profile = NATModel(rng).sample()
        assert isinstance(profile, NATProfile)
        assert profile.true_type in NATType

    def test_mix_proportions_roughly_respected(self):
        model = NATModel(random.Random(3), misclassify_prob=0.0)
        counts = {t: 0 for t in NATType}
        n = 4000
        for _ in range(n):
            counts[model.sample().true_type] += 1
        for nat_type, weight in DEFAULT_NAT_MIX.items():
            assert counts[nat_type] / n == pytest.approx(weight, abs=0.05)

    def test_no_misclassification_when_disabled(self):
        model = NATModel(random.Random(3), misclassify_prob=0.0)
        for _ in range(200):
            profile = model.sample()
            assert not profile.misclassified

    def test_misclassification_rate(self):
        model = NATModel(random.Random(3), misclassify_prob=0.5)
        n = 2000
        wrong = sum(1 for _ in range(n) if model.sample().misclassified)
        assert wrong / n == pytest.approx(0.5, abs=0.05)

    def test_invalid_misclassify_prob_rejected(self, rng):
        with pytest.raises(ValueError):
            NATModel(rng, misclassify_prob=1.5)

    def test_custom_mix(self, rng):
        model = NATModel(rng, mix={NATType.OPEN: 1.0}, misclassify_prob=0.0)
        for _ in range(20):
            assert model.sample().true_type is NATType.OPEN

    def test_empty_mix_rejected(self, rng):
        with pytest.raises(ValueError):
            NATModel(rng, mix={NATType.OPEN: 0.0})
