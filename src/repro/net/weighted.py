"""Weighted picks and bulk draws: columns off a ``random.Random`` stream.

Every weighted pick in population synthesis is ``rng.choices(population,
cum_weights=cum, k=1)``: one uniform bisected over a cumulative table the
model precomputes with :func:`cumulative`.  :func:`pick_indices` is that
bisection over a column of already-drawn uniforms, so the array-native
build lands on exactly the entries the scalar samplers (the oracle) would.

The uniforms come a block at a time: :func:`raw_words` takes the stream's
next 32-bit outputs in one C call, and the functions after it form what
``random()``, ``getrandbits(64)`` and ``choice`` would have returned.  The
stream is only ever *advanced*, so it ends where the scalar calls leave it.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

__all__ = ["cumulative", "pick_indices", "raw_words", "uniforms", "bits64",
           "choice_records"]


def cumulative(weights) -> list[float]:
    """The running sums ``random.choices`` builds from ``weights=``."""
    return list(accumulate(weights))


def pick_indices(cum_weights, uniforms) -> "np.ndarray":
    """CPython's ``choices``: ``bisect_right(cum, u * (cum[-1] + 0.0), 0, n - 1)``."""
    cum = np.asarray(cum_weights, dtype=np.float64)
    scaled = np.asarray(uniforms, dtype=np.float64) * (cum[-1] + 0.0)
    return np.searchsorted(cum[:-1], scaled, side="right")


def raw_words(rng, n: int) -> "np.ndarray":
    """The next ``n`` 32-bit outputs of ``rng``, consumed: ``getrandbits(32 *
    n)`` is one C loop over exactly those, least significant word first."""
    return np.frombuffer(
        rng.getrandbits(32 * n).to_bytes(4 * n, "little"), dtype="<u4")


def uniforms(words: "np.ndarray") -> "np.ndarray":
    """``random()`` per consecutive word pair along the last axis."""
    a = (words[..., 0::2] >> 5).astype(np.float64)
    b = (words[..., 1::2] >> 6).astype(np.float64)
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


def bits64(words: "np.ndarray") -> "np.ndarray":
    """``getrandbits(64)`` per consecutive word pair along the last axis."""
    return words[..., 0::2] | (words[..., 1::2].astype(np.uint64) << np.uint64(32))


def choice_records(rng, m: int, n: int, tail: int):
    """``m`` times ``rng.choice`` over ``n`` items then ``tail`` more words.

    CPython's ``choice`` draws ``getrandbits(n.bit_length())`` until the
    value is below ``n``, so a record's start depends on the one before it:
    the accept test is made at every position of a block at once, then the
    records are walked in order.  Yields ``(picks, tails)`` chunks; a round
    draws no more words than the missing records are certain to use.
    """
    shift, least = 32 - n.bit_length(), 1 + tail
    words = np.empty(0, dtype=np.uint32)
    while m:
        words = np.concatenate(
            (words, raw_words(rng, max(1, least * m - len(words)))))
        size = len(words)
        # Per position, where a record starting there ends (none: past size).
        hit = np.where((words >> shift) < n, np.arange(size), size)
        nxt = memoryview(np.minimum.accumulate(hit[::-1])[::-1] + least)
        ends, s = [], 0
        while s < size and nxt[s] <= size:
            s = nxt[s]
            ends.append(s)
        ends = np.array(ends, dtype=np.intp)
        yield (words[ends - least] >> shift,
               words[ends[:, None] + np.arange(-tail, 0)])
        m -= len(ends)
        words = words[s:]
