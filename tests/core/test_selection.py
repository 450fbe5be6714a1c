"""Tests for locality-aware peer selection (paper §3.7)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.control.database_node import PeerRegistration
from repro.core.selection import (
    QueryContext, compose_stages, select_peers, specificity_level,
)
from repro.net.nat import NATType


def reg(guid, asn=100, country="DE", region="Europe",
        nat=NATType.OPEN, uploads=True):
    return PeerRegistration(
        guid=guid, cid="cid", asn=asn, country_code=country, region=region,
        nat_reported=nat.value, uploads_enabled=uploads,
        registered_at=0.0, refreshed_at=0.0,
    )


def ctx(guid="me", asn=100, country="DE", region="Europe", nat=NATType.OPEN):
    return QueryContext(guid=guid, asn=asn, country_code=country,
                        region=region, nat_reported=nat.value)


@pytest.fixture
def rng():
    return random.Random(7)


class TestSpecificity:
    def test_same_as_is_most_specific(self):
        assert specificity_level(ctx(), reg("a", asn=100)) == 3

    def test_same_country_different_as(self):
        assert specificity_level(ctx(), reg("a", asn=999)) == 2

    def test_same_region_different_country(self):
        assert specificity_level(ctx(), reg("a", asn=999, country="FR")) == 1

    def test_world_fallback(self):
        assert specificity_level(
            ctx(), reg("a", asn=999, country="US", region="US East")) == 0


class TestFilters:
    def test_self_excluded(self, rng):
        chosen = select_peers([reg("me")], ctx(guid="me"), 10, rng)
        assert chosen == []

    def test_exclude_set_respected(self, rng):
        chosen = select_peers([reg("a"), reg("b")], ctx(), 10, rng,
                              exclude=frozenset({"a"}))
        assert [r.guid for r in chosen] == ["b"]

    def test_uploads_disabled_filtered(self, rng):
        chosen = select_peers([reg("a", uploads=False)], ctx(), 10, rng)
        assert chosen == []

    def test_nat_incompatible_filtered(self, rng):
        regs = [reg("sym", nat=NATType.SYMMETRIC)]
        chosen = select_peers(regs, ctx(nat=NATType.SYMMETRIC), 10, rng)
        assert chosen == []

    def test_nat_compatible_kept(self, rng):
        regs = [reg("cone", nat=NATType.FULL_CONE)]
        chosen = select_peers(regs, ctx(nat=NATType.SYMMETRIC), 10, rng)
        assert [r.guid for r in chosen] == ["cone"]

    def test_blocked_peer_never_selected(self, rng):
        regs = [reg("blocked", nat=NATType.BLOCKED)]
        assert select_peers(regs, ctx(), 10, rng) == []

    def test_unknown_nat_string_treated_conservatively(self, rng):
        r = reg("weird")
        r.nat_reported = "???"
        # Conservative default (port-restricted) still connects to OPEN.
        assert select_peers([r], ctx(), 10, rng)

    def test_zero_count_returns_empty(self, rng):
        assert select_peers([reg("a")], ctx(), 0, rng) == []


class TestLocalityOrdering:
    def test_most_specific_first(self, rng):
        regs = [
            reg("world", asn=1, country="US", region="US East"),
            reg("region", asn=2, country="FR"),
            reg("country", asn=3),
            reg("sameas", asn=100),
        ]
        chosen = select_peers(regs, ctx(), 4, rng, diversity_probability=0.0)
        assert [r.guid for r in chosen] == ["sameas", "country", "region", "world"]

    def test_count_limits_to_most_specific(self, rng):
        regs = [reg(f"as{i}", asn=100) for i in range(5)]
        regs += [reg(f"cc{i}", asn=200) for i in range(5)]
        chosen = select_peers(regs, ctx(), 5, rng, diversity_probability=0.0)
        assert all(r.asn == 100 for r in chosen)

    def test_widens_when_specific_set_insufficient(self, rng):
        regs = [reg("as1", asn=100), reg("cc1", asn=200), reg("rg1", country="FR")]
        chosen = select_peers(regs, ctx(), 3, rng, diversity_probability=0.0)
        assert len(chosen) == 3

    def test_rotation_order_preserved_within_level(self, rng):
        regs = [reg(f"a{i}", asn=100) for i in range(6)]
        chosen = select_peers(regs, ctx(), 3, rng, diversity_probability=0.0)
        assert [r.guid for r in chosen] == ["a0", "a1", "a2"]

    def test_no_duplicates_ever(self, rng):
        regs = [reg(f"p{i}", asn=100 if i % 2 else 200) for i in range(30)]
        chosen = select_peers(regs, ctx(), 20, rng, diversity_probability=0.5)
        guids = [r.guid for r in chosen]
        assert len(guids) == len(set(guids))


class TestDiversity:
    def test_diversity_pulls_from_less_specific_sets(self):
        rng = random.Random(3)
        regs = [reg(f"as{i}", asn=100) for i in range(20)]
        regs += [reg(f"far{i}", asn=999, country="US", region="US East")
                 for i in range(20)]
        seen_far = False
        for _ in range(30):
            chosen = select_peers(regs, ctx(), 10, rng, diversity_probability=0.5)
            if any(r.guid.startswith("far") for r in chosen):
                seen_far = True
                break
        assert seen_far

    def test_zero_diversity_is_strictly_local(self):
        rng = random.Random(3)
        regs = [reg(f"as{i}", asn=100) for i in range(20)]
        regs += [reg(f"far{i}", asn=999, country="US", region="US East")
                 for i in range(20)]
        for _ in range(10):
            chosen = select_peers(regs, ctx(), 10, rng, diversity_probability=0.0)
            assert all(r.guid.startswith("as") for r in chosen)


class TestRandomPolicy:
    def test_locality_unaware_ignores_ordering(self):
        regs = [reg(f"p{i}", asn=100 + i) for i in range(40)]
        rng = random.Random(0)
        picks = select_peers(regs, ctx(), 10, rng, locality_aware=False)
        assert len(picks) == 10
        # Over many runs the first pick varies (random, not rotation order).
        firsts = set()
        for seed in range(20):
            picks = select_peers(regs, ctx(), 10, random.Random(seed),
                                 locality_aware=False)
            firsts.add(picks[0].guid)
        assert len(firsts) > 3

    @pytest.mark.parametrize("policy", ["unrestricted", "isp_local"])
    def test_no_rank_stage_keeps_the_uniform_draw(self, policy):
        from repro.vod.policy import make_policy

        regs = [reg(f"p{i}", asn=100 + i) for i in range(40)]
        stages = (make_policy(policy, ["some-vod-cid"]),)
        candidate_filter, rank_key = compose_stages(stages, 0.0)
        assert rank_key is None
        rng, ref = random.Random(3), random.Random(3)
        picks = select_peers(regs, ctx(), 10, rng, locality_aware=False,
                             candidate_filter=candidate_filter,
                             rank_key=rank_key)
        assert picks == ref.sample(regs, 10)
        assert rng.getstate() == ref.getstate()

    def test_random_policy_still_filters_nat(self, rng):
        regs = [reg("sym", nat=NATType.SYMMETRIC)]
        chosen = select_peers(regs, ctx(nat=NATType.SYMMETRIC), 5, rng,
                              locality_aware=False)
        assert chosen == []


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=60),
        count=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=1000),
        diversity=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_never_exceeds_count_and_no_self(self, n, count, seed, diversity):
        rng = random.Random(seed)
        regs = [
            reg(f"p{i}", asn=rng.choice([100, 200, 300]),
                country=rng.choice(["DE", "FR", "US"]),
                region=rng.choice(["Europe", "US East"]))
            for i in range(n)
        ]
        chosen = select_peers(regs, ctx(), count, rng,
                              diversity_probability=diversity)
        assert len(chosen) <= count
        guids = [r.guid for r in chosen]
        assert "me" not in guids
        assert len(guids) == len(set(guids))
