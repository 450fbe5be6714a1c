"""Shared result recording for the benchmark modules.

``BENCH_simcore.json`` is a *trajectory*, not a snapshot: the latest
values live at the top level (so existing consumers — the CI gate, the
README table, humans eyeballing a PR diff — read them exactly as
before), and a ``history`` key holds an append-style series per bench
name so a regression shows up as a trend, not just a one-off diff.

Every benchmark module collects into its own ``RESULTS`` dict and calls
:func:`record_results` once at module teardown; the function
read-merges-writes so modules running in the same (or separate) pytest
invocations compose instead of clobbering each other.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

#: The trajectory file at the repo root (committed; CI gates against it).
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_simcore.json"

#: Entries kept per bench in ``history`` (newest last).  Forty entries at
#: CI cadence is months of trend without the file outgrowing review.
HISTORY_LIMIT = 40


def record_results(results: dict[str, dict], path: Path = BENCH_PATH) -> None:
    """Merge ``results`` into the trajectory file at ``path``.

    Each bench's latest values replace its top-level entry, and a
    timestamped copy is appended to ``history[<bench>]`` (capped at
    :data:`HISTORY_LIMIT`, oldest dropped first).
    """
    if not results:
        return
    merged: dict = {}
    if path.exists():
        merged = json.loads(path.read_text())
    history: dict[str, list] = merged.get("history", {})
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for name, values in results.items():
        merged[name] = values
        series = history.setdefault(name, [])
        series.append({"recorded": stamp, **values})
        del series[:-HISTORY_LIMIT]
    merged["history"] = history
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")


def wall_seconds(entry: dict) -> float | None:
    """Locate the headline wall-clock metric inside a bench entry.

    Benches differ in shape: ``vod_playback`` is flat, the engine
    comparisons nest the production configuration under ``batched``
    (the reference side is expected to be slower and is not gated).
    Returns ``None`` when the entry carries no wall metric at
    all (overhead-fraction benches), which the gate treats as ungateable
    rather than as a failure.
    """
    if "wall_seconds" in entry:
        return float(entry["wall_seconds"])
    sub = entry.get("batched")
    if isinstance(sub, dict) and "wall_seconds" in sub:
        return float(sub["wall_seconds"])
    return None
