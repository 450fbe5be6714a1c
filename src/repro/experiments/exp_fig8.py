"""Experiment: Figure 8 — peer contributions by country."""

from __future__ import annotations

from collections import Counter

from repro.analysis import figure8_country_contributions, render_table
from repro.experiments.common import ExperimentOutput, standard_result


def run(scale: str = "small", seed: int = 42) -> ExperimentOutput:
    """Regenerate Figure 8 for one typical p2p-enabled provider.

    Customer D (cp 1004) ships upload-enabled binaries, like the paper's
    exemplary provider.  Shape target: a mixed picture — peers contribute
    more in some regions but the split does not vary wildly, because the
    edge network has good coverage everywhere.
    """
    result = standard_result(scale, seed)
    classes = figure8_country_contributions(result.logstore, result.geodb, cp_code=1004)
    census = Counter(classes.values())
    rows = sorted(classes.items())
    text = render_table(
        "Figure 8: per-country contribution class (customer D)",
        ["country", "class"], rows,
    )
    text += f"\n\ncensus: {dict(sorted(census.items()))}"
    total = sum(census.values())
    return ExperimentOutput(
        name="fig8",
        text=text,
        metrics={
            "countries": total,
            "peer_majority_share": (census.get("peers_half", 0) + census.get("peers_major", 0)) / total
            if total else 0.0,
        },
    )
