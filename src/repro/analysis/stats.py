"""Statistical helpers shared by the analyses: CDFs, percentiles, means.

Small, dependency-light utilities so every figure module computes its
series the same way.  All functions are pure and operate on plain Python
sequences (numpy is used internally where it pays).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["cdf_points", "percentile", "mean"]


def cdf_points(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF as (value, cumulative fraction) points, value-sorted.

    Returns an empty list for empty input.  Fractions are in (0, 1] with
    the last point at exactly 1.0.
    """
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (q in [0, 100]) with linear interpolation."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for empty input (analyses treat empty as zero)."""
    total = 0.0
    count = 0
    for v in values:
        total += v
        count += 1
    return total / count if count else 0.0
