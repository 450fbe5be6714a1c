"""Unit tests for misbehavior profiles and seeded assignment."""

from __future__ import annotations

import random

import pytest

from repro.adversary.profiles import (
    PROFILES, AdversaryConfig, apply_profile, assign_adversaries,
    choose_profile, revert_profile,
)
from repro.core import NetSessionSystem

HOUR = 3600.0


@pytest.fixture
def peers():
    system = NetSessionSystem(seed=5)
    return [system.create_peer() for _ in range(20)]


class TestConfig:
    def test_defaults_valid(self):
        AdversaryConfig()

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            AdversaryConfig(fraction=1.5)

    def test_profile_mix_length_enforced(self):
        with pytest.raises(ValueError):
            AdversaryConfig(profile_mix=(1.0, 1.0))

    def test_profile_mix_must_have_weight(self):
        with pytest.raises(ValueError):
            AdversaryConfig(profile_mix=(0.0,) * len(PROFILES))

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
    def test_profile_mix_weights_finite_and_non_negative(self, weight):
        # NaN passed the old ``w < 0`` check; inf made every draw NaN.
        with pytest.raises(ValueError, match="profile_mix"):
            AdversaryConfig(profile_mix=(weight,) + (1.0,) * (len(PROFILES) - 1))


class TestChooseProfile:
    def test_zero_weight_never_chosen(self):
        mix = (1.0, 0.0, 1.0, 0.0, 1.0)
        rng = random.Random(0)
        picked = {choose_profile(rng, mix) for _ in range(200)}
        assert picked == {"corrupter", "stale_advertiser", "slow_loris"}

    def test_single_weight_always_chosen(self):
        mix = (0.0, 0.0, 0.0, 1.0, 0.0)
        rng = random.Random(1)
        assert all(choose_profile(rng, mix) == "accounting_inflator"
                   for _ in range(20))


class TestApplyRevert:
    def test_corrupter_sets_corruption_prob(self, peers):
        peer = peers[0]
        config = AdversaryConfig(corruption_prob=0.7)
        apply_profile(peer, "corrupter", config)
        assert peer.adversary_profile == "corrupter"
        assert peer.piece_corruption_prob == 0.7

    def test_serving_profiles_force_uploads_enabled(self, peers):
        config = AdversaryConfig()
        for profile, peer in zip(PROFILES, peers):
            peer.uploads_enabled = False
            apply_profile(peer, profile, config)
            if profile == "accounting_inflator":
                # The inflator attacks the report, not the data path: it
                # honors the user's setting.
                assert not peer.uploads_enabled
            else:
                assert peer.uploads_enabled

    def test_revert_round_trips_every_attribute(self, peers):
        config = AdversaryConfig(corruption_prob=0.9, slow_factor=0.01)
        for profile, peer in zip(PROFILES, peers):
            peer.uploads_enabled = False
            before = (peer.adversary_profile, peer.piece_corruption_prob,
                      peer.accounting_attacker, peer.adversary_slow_factor,
                      peer.uploads_enabled)
            token = apply_profile(peer, profile, config)
            revert_profile(token)
            after = (peer.adversary_profile, peer.piece_corruption_prob,
                     peer.accounting_attacker, peer.adversary_slow_factor,
                     peer.uploads_enabled)
            assert after == before, profile

    def test_unknown_profile_rejected(self, peers):
        with pytest.raises(ValueError):
            apply_profile(peers[0], "saboteur", AdversaryConfig())


class TestAssignment:
    def test_fraction_and_truth(self, peers):
        truth: dict = {}
        tokens = assign_adversaries(
            peers, AdversaryConfig(fraction=0.25), 42, truth=truth)
        assert len(tokens) == round(0.25 * len(peers))
        assert set(truth) == {
            p.guid for p in peers if p.adversary_profile is not None}
        assert all(v in PROFILES for v in truth.values())

    def test_deterministic_per_seed(self):
        def run(seed):
            system = NetSessionSystem(seed=5)
            group = [system.create_peer() for _ in range(20)]
            assign_adversaries(group, AdversaryConfig(fraction=0.3), seed)
            return [(p.guid, p.adversary_profile) for p in group]

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_zero_fraction_is_a_no_op(self, peers):
        assert assign_adversaries(peers, AdversaryConfig(fraction=0.0), 1) == []
        assert all(p.adversary_profile is None for p in peers)

    def test_positive_fraction_converts_at_least_one(self, peers):
        tokens = assign_adversaries(peers, AdversaryConfig(fraction=0.01), 1)
        assert len(tokens) == 1


class TestBehaviorHooks:
    def test_free_rider_refuses_grants(self):
        from repro.core import ContentObject, ContentProvider
        from repro.core.peer import CacheEntry

        system = NetSessionSystem(seed=5)
        provider = ContentProvider(cp_code=9001, name="T",
                                   upload_default_rate=1.0)
        obj = ContentObject("x.bin", 40 * 1024 * 1024, provider,
                            p2p_enabled=True)
        system.publish(obj)
        peer = system.create_peer(uploads_enabled=True)
        peer.cache[obj.cid] = CacheEntry(cid=obj.cid, completed_at=0.0)
        peer.boot()
        assert peer.try_grant_upload(obj.cid)
        peer.release_upload()
        apply_profile(peer, "free_rider", AdversaryConfig())
        assert not peer.try_grant_upload(obj.cid)

    def test_slow_loris_caps_upload_rate(self, peers):
        peer = peers[0]
        honest = peer.upload_rate_cap()
        apply_profile(peer, "slow_loris", AdversaryConfig(slow_factor=0.02))
        assert peer.upload_rate_cap() == pytest.approx(
            max(1.0, honest * 0.02))
