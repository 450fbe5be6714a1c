"""Tests for the content model."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.content import PIECE_SIZE, ContentObject, ContentProvider


@pytest.fixture
def gameco():
    return ContentProvider(cp_code=1, name="GameCo", upload_default_rate=0.5)


class TestProvider:
    def test_invalid_cp_code_rejected(self):
        with pytest.raises(ValueError):
            ContentProvider(cp_code=0, name="x")

    def test_invalid_upload_rate_rejected(self):
        with pytest.raises(ValueError):
            ContentProvider(cp_code=1, name="x", upload_default_rate=1.5)

    def test_region_mix_optional(self):
        p = ContentProvider(cp_code=1, name="x")
        assert p.region_mix == {}


class TestObject:
    def test_piece_count_exact_multiple(self, gameco):
        obj = ContentObject("a", 3 * PIECE_SIZE, gameco)
        assert obj.num_pieces == 3
        assert obj.last_piece_size == PIECE_SIZE

    def test_piece_count_with_remainder(self, gameco):
        obj = ContentObject("a", 3 * PIECE_SIZE + 100, gameco)
        assert obj.num_pieces == 4
        assert obj.last_piece_size == 100

    def test_single_small_piece(self, gameco):
        obj = ContentObject("a", 10, gameco)
        assert obj.num_pieces == 1
        assert obj.piece_size(0) == 10

    def test_piece_sizes_sum_to_object_size(self, gameco):
        obj = ContentObject("a", 5 * PIECE_SIZE + 12345, gameco)
        assert sum(obj.piece_size(i) for i in range(obj.num_pieces)) == obj.size

    @given(size=st.integers(min_value=1, max_value=20 * PIECE_SIZE))
    def test_piece_invariants_hold_for_any_size(self, size):
        provider = ContentProvider(cp_code=1, name="p")
        obj = ContentObject("a", size, provider)
        assert obj.num_pieces >= 1
        assert sum(obj.piece_size(i) for i in range(obj.num_pieces)) == size
        assert all(0 < obj.piece_size(i) <= PIECE_SIZE for i in range(obj.num_pieces))

    def test_piece_index_out_of_range(self, gameco):
        obj = ContentObject("a", PIECE_SIZE, gameco)
        with pytest.raises(IndexError):
            obj.piece_size(1)

    def test_zero_size_rejected(self, gameco):
        with pytest.raises(ValueError):
            ContentObject("a", 0, gameco)

    def test_equality_by_cid(self, gameco):
        a = ContentObject("a", 100, gameco)
        b = ContentObject("a", 100, gameco)
        c = ContentObject("a", 100, gameco, version=2)
        assert a == b
        assert a != c
        assert len({a, b, c}) == 2
