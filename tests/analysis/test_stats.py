"""Tests for the statistics helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import cdf_points, mean, percentile


class TestCdf:
    def test_empty(self):
        assert cdf_points([]) == []

    def test_single_value(self):
        assert cdf_points([5.0]) == [(5.0, 1.0)]

    def test_sorted_and_ends_at_one(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert [v for v, _ in points] == [1.0, 2.0, 3.0]
        assert points[-1][1] == 1.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
    def test_cdf_monotone(self, values):
        points = cdf_points(values)
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_bounds(self):
        values = [1.0, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_invalid_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)


class TestMean:
    def test_empty_is_zero(self):
        assert mean([]) == 0.0

    def test_simple(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_accepts_generator(self):
        assert mean(x for x in (2.0, 4.0)) == 3.0
