"""Benchmark suite configuration: the ``bench`` marker.

The paper-shape checks of every experiment live in
``tests/test_experiments.py``; this directory holds the performance
benchmarks (``test_simcore``, ``test_vod``, ``test_runner``) and the
``benchmarks/perf`` harness.
"""

from __future__ import annotations

import pytest


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ as ``bench``.

    The suite is only collected when invoked by path (it is outside
    ``testpaths``), so the marker is informational — it lets a combined run
    select or deselect benchmarks with ``-m bench`` without per-file noise.
    """
    for item in items:
        item.add_marker(pytest.mark.bench)
