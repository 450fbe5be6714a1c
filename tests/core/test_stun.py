"""Tests for the STUN service and the NAT model it fronts (paper §3.6)."""

from __future__ import annotations

import random

import pytest

from repro.core.control.stun import StunService
from repro.net.nat import (
    DEFAULT_NAT_MIX, NATModel, NATProfile, NATType, can_connect,
)


class TestStunService:
    def test_probe_returns_reported_type(self):
        stun = StunService()
        profile = NATProfile(true_type=NATType.SYMMETRIC,
                             reported_type=NATType.OPEN)
        # STUN reports the (possibly mis-) classified type, never the truth.
        assert stun.probe(profile) is NATType.OPEN

    def test_probe_volume_counted(self, system, monkeypatch):
        # One probe per login: the volume equals the login records.
        probed = _spy(system, monkeypatch)
        country = system.world.by_code["DE"]
        for _ in range(5):
            system.create_peer(country=country, uploads_enabled=True).boot()
        assert len(probed) == len(system.logstore.logins) == 5
        assert system.control.stun.name == "stun-0"

    def test_cn_login_runs_a_probe(self, system, monkeypatch):
        # §3.6: connectivity is (re)determined when a peer logs into a CN.
        probed = _spy(system, monkeypatch)
        country = system.world.by_code["DE"]
        peer = system.create_peer(country=country, uploads_enabled=True)
        peer.boot()
        assert probed == [peer.nat_profile]


def _spy(system, monkeypatch) -> list:
    """Record every profile the system's STUN service probes."""
    stun, probed = system.control.stun, []
    real = stun.probe
    monkeypatch.setattr(stun, "probe",
                        lambda profile: (probed.append(profile), real(profile))[1])
    return probed


class TestNATModel:
    def test_sample_is_deterministic_per_seed(self):
        a = NATModel(random.Random(5)).sample()
        b = NATModel(random.Random(5)).sample()
        assert a == b

    def test_sample_follows_the_mix(self):
        model = NATModel(random.Random(1), misclassify_prob=0.0)
        counts = {t: 0 for t in NATType}
        n = 4000
        for _ in range(n):
            counts[model.sample().true_type] += 1
        for nat_type, weight in DEFAULT_NAT_MIX.items():
            assert counts[nat_type] / n == pytest.approx(weight, abs=0.03)

    def test_misclassification_rate(self):
        model = NATModel(random.Random(2), misclassify_prob=0.1)
        n = 3000
        wrong = sum(model.sample().misclassified for _ in range(n))
        assert wrong / n == pytest.approx(0.1, abs=0.03)

    def test_zero_misclassify_prob_always_truthful(self):
        model = NATModel(random.Random(3), misclassify_prob=0.0)
        assert not any(model.sample().misclassified for _ in range(500))

    def test_rng_override_leaves_model_stream_untouched(self):
        model = NATModel(random.Random(4))
        baseline = NATModel(random.Random(4))
        model.sample(rng=random.Random(99))  # e.g. a fault-layer draw
        # The model's own stream must be unperturbed by the override.
        assert model.sample() == baseline.sample()

    def test_rebind_redraws_from_mix(self):
        model = NATModel(random.Random(6))
        profile = model.sample()
        rebound = model.rebind(profile, random.Random(7))
        assert isinstance(rebound, NATProfile)
        assert isinstance(rebound.true_type, NATType)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NATModel(random.Random(0), mix={NATType.OPEN: 0.0})
        with pytest.raises(ValueError):
            NATModel(random.Random(0), misclassify_prob=1.0)
        with pytest.raises(ValueError):
            NATModel(random.Random(0), misclassify_prob=-0.1)


class TestTraversalMatrix:
    def test_symmetric_matrix(self):
        for a in NATType:
            for b in NATType:
                assert can_connect(a, b) == can_connect(b, a)

    def test_blocked_is_unreachable(self):
        for t in NATType:
            assert not can_connect(t, NATType.BLOCKED)

    def test_symmetric_pairings_fail(self):
        assert not can_connect(NATType.SYMMETRIC, NATType.SYMMETRIC)
        assert not can_connect(NATType.SYMMETRIC, NATType.PORT_RESTRICTED)

    def test_coordinated_punching_succeeds_otherwise(self):
        assert can_connect(NATType.SYMMETRIC, NATType.RESTRICTED_CONE)
        assert can_connect(NATType.PORT_RESTRICTED, NATType.PORT_RESTRICTED)
        assert can_connect(NATType.OPEN, NATType.FULL_CONE)

    def test_default_mix_is_a_distribution(self):
        assert sum(DEFAULT_NAT_MIX.values()) == pytest.approx(1.0)
        assert set(DEFAULT_NAT_MIX) == set(NATType)
