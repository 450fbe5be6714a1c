"""Bulk draws off a ``random.Random`` stream equal the scalar calls.

``repro.net.weighted`` forms columns of ``random()``, ``getrandbits(k)``,
``getrandbits(64)`` and rejection-sampled ``choice`` results from blocks of
the stream's raw words.  The scalar calls are the oracle: same values, and
the stream left in the same ``getstate()`` — from any position, including
mid-way through the generator's 624-word block and with a ``gauss()`` spare
pending.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.net.weighted import (  # noqa: E402
    bits64, choice_records, raw_words, uniforms,
)

#: Enough to straddle the Mersenne Twister's 624-word regeneration.
COUNTS = st.integers(0, 700)


@st.composite
def stream_pairs(draw):
    """Two identical streams at an arbitrary position."""
    seed, burn = draw(st.integers(0, 2**32)), draw(st.integers(0, 1300))
    gauss = draw(st.booleans())
    pair = random.Random(seed), random.Random(seed)
    for rng in pair:
        rng.getrandbits(32 * burn)
        if gauss:
            rng.gauss(0.0, 1.0)  # leaves gauss_next set
    return pair


@settings(max_examples=60, deadline=None)
@given(pair=stream_pairs(), n=COUNTS)
def test_uniforms_equal_random(pair, n):
    bulk, scalar = pair
    got = uniforms(raw_words(bulk, 2 * n))
    assert got.tolist() == [scalar.random() for _ in range(n)]
    assert bulk.getstate() == scalar.getstate()


@settings(max_examples=60, deadline=None)
@given(pair=stream_pairs(), n=COUNTS, k=st.integers(1, 32))
def test_word_tops_equal_getrandbits(pair, n, k):
    bulk, scalar = pair
    got = raw_words(bulk, n) >> (32 - k)
    assert got.tolist() == [scalar.getrandbits(k) for _ in range(n)]
    assert bulk.getstate() == scalar.getstate()


@settings(max_examples=60, deadline=None)
@given(pair=stream_pairs(), n=COUNTS)
def test_bits64_equal_getrandbits_64(pair, n):
    bulk, scalar = pair
    got = bits64(raw_words(bulk, 2 * n))
    assert got.dtype == np.uint64
    assert got.tolist() == [scalar.getrandbits(64) for _ in range(n)]
    assert bulk.getstate() == scalar.getstate()


def test_rows_of_mixed_draws():
    """The per-peer layout the store build uses: uniforms, then a seed."""
    bulk, scalar = random.Random(11), random.Random(11)
    words = raw_words(bulk, 10 * 50).reshape(50, 10)
    expected = [([scalar.random() for _ in range(4)], scalar.getrandbits(64))
                for _ in range(50)]
    assert uniforms(words[:, :8]).tolist() == [u for u, _ in expected]
    assert bits64(words[:, 8:])[:, 0].tolist() == [s for _, s in expected]
    assert bulk.getstate() == scalar.getstate()


@settings(max_examples=80, deadline=None)
@given(pair=stream_pairs(), m=st.integers(1, 300),
       # 1 and powers of two never reject, 5 and 9 reject almost half.
       n=st.sampled_from([1, 2, 3, 5, 6, 8, 9, 33, 1000]),
       tail=st.integers(0, 7))
def test_choice_records_equal_choice_then_words(pair, m, n, tail):
    bulk, scalar = pair
    picks, tails = zip(*choice_records(bulk, m, n, tail))
    expected = [(scalar.choice(range(n)),
                 [scalar.getrandbits(32) for _ in range(tail)])
                for _ in range(m)]
    assert np.concatenate(picks).tolist() == [p for p, _ in expected]
    assert np.concatenate(tails).tolist() == [t for _, t in expected]
    assert bulk.getstate() == scalar.getstate()
