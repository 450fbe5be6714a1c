"""Weighted picks, scalar and columnar, from one cumulative table.

Every weighted pick in population synthesis is ``rng.choices(population,
cum_weights=cum, k=1)``: one uniform bisected over a cumulative table the
model precomputes with :func:`cumulative`.  :func:`pick_indices` is that
bisection over a column of already-drawn uniforms, so the array-native
build lands on exactly the entries the scalar samplers (the oracle) would.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

__all__ = ["cumulative", "pick_indices"]


def cumulative(weights) -> list[float]:
    """The running sums ``random.choices`` builds from ``weights=``."""
    return list(accumulate(weights))


def pick_indices(cum_weights, uniforms) -> "np.ndarray":
    """CPython's ``choices``: ``bisect_right(cum, u * (cum[-1] + 0.0), 0, n - 1)``."""
    cum = np.asarray(cum_weights, dtype=np.float64)
    scaled = np.asarray(uniforms, dtype=np.float64) * (cum[-1] + 0.0)
    return np.searchsorted(cum[:-1], scaled, side="right")
