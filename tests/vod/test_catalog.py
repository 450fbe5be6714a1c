"""Catalog structure, determinism, and popularity decay."""

from __future__ import annotations

import random

import pytest

from repro.vod import VOD_CP_CODE, VodConfig, build_vod_catalog
from repro.vod.catalog import DECAY_HALF_LIFE_DAYS, RELEASE_SPACING_DAYS


@pytest.fixture
def config():
    return VodConfig(n_series=4, episodes_per_series=5)


@pytest.fixture
def catalog(config):
    return build_vod_catalog(random.Random("t"), config)


class TestStructure:
    def test_counts_match_config(self, catalog, config):
        assert len(catalog.series) == config.n_series
        assert len(catalog.episodes()) == (
            config.n_series * config.episodes_per_series)

    def test_episodes_are_p2p_vod_objects(self, catalog):
        for ep in catalog.episodes():
            assert ep.obj.p2p_enabled
            assert ep.obj.provider.cp_code == VOD_CP_CODE
            assert ep.obj.size == VodConfig().episode_bytes

    def test_release_schedule_ends_at_trace_start(self, catalog, config):
        for series in catalog.series:
            days = [ep.release_day for ep in series.episodes]
            assert days == sorted(days)
            assert days[-1] == 0.0  # newest episode airs at the window open
            assert days[0] == -(config.episodes_per_series - 1) * \
                RELEASE_SPACING_DAYS

    def test_cids_are_unique(self, catalog):
        cids = [ep.obj.cid for ep in catalog.episodes()]
        assert len(set(cids)) == len(cids)


class TestDeterminism:
    def test_same_rng_seed_same_catalog(self, config):
        a = build_vod_catalog(random.Random("x"), config)
        b = build_vod_catalog(random.Random("x"), config)
        assert [s.audience_weight for s in a.series] == \
            [s.audience_weight for s in b.series]
        assert [ep.obj.cid for ep in a.episodes()] == \
            [ep.obj.cid for ep in b.episodes()]


class TestPopularity:
    def test_newer_episodes_weigh_more_within_a_series(self, catalog, config):
        weights = catalog.weights()
        per_series = config.episodes_per_series
        first_series = weights[:per_series]
        assert first_series == sorted(first_series)  # decay: older is lighter

    def test_half_life_is_honoured(self, catalog, config):
        weights = catalog.weights()
        series = catalog.series[0]
        for older, newer in zip(series.episodes, series.episodes[1:]):
            ratio = (weights[newer.index] / weights[older.index])
            expected = 2.0 ** (RELEASE_SPACING_DAYS / DECAY_HALF_LIFE_DAYS)
            assert ratio == pytest.approx(expected)

    def test_hit_series_outweigh_the_tail(self, catalog):
        assert catalog.series[0].audience_weight > \
            catalog.series[-1].audience_weight


class TestLookups:

    def test_next_episode_walks_the_series(self, catalog):
        series = catalog.series[0]
        assert catalog.next_episode(series.episodes[0]) is series.episodes[1]
        assert catalog.next_episode(series.episodes[-1]) is None
