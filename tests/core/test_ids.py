"""Tests for identifier generation."""

from __future__ import annotations

import random

from repro.core.ids import content_id, make_guid, make_secondary_guid


class TestGuids:
    def test_guid_is_128_bit_hex(self, rng):
        guid = make_guid(rng)
        assert len(guid) == 32
        int(guid, 16)  # parses as hex

    def test_secondary_guid_is_160_bit_hex(self, rng):
        sg = make_secondary_guid(rng)
        assert len(sg) == 40
        int(sg, 16)

    def test_guids_unique_across_draws(self, rng):
        assert len({make_guid(rng) for _ in range(1000)}) == 1000

    def test_deterministic_given_seed(self):
        a = make_guid(random.Random(1))
        b = make_guid(random.Random(1))
        assert a == b


class TestContentIds:
    def test_same_url_version_same_cid(self):
        assert content_id("a/b", 1) == content_id("a/b", 1)

    def test_version_changes_cid(self):
        assert content_id("a/b", 1) != content_id("a/b", 2)

    def test_url_changes_cid(self):
        assert content_id("a/b", 1) != content_id("a/c", 1)
