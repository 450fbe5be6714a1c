"""Experiment: adversarial resilience — misbehaving peers vs. the defense.

The paper's §5/§6.2 robustness claim is that NetSession operates a
peer-assisted CDN on *untrusted* client machines: hash verification keeps
corrupted pieces out, edge-log cross-checks keep inflated usage reports
out of billing.  This experiment turns that claim into a measured sweep —
a fixed workload is re-run with 0%, 10%, and 25% of the population
converted to the five :mod:`repro.adversary` misbehavior profiles, with
the reputation/quarantine defense off and on, and reports:

* **peer offload** per cell, and the defense-on *retention* relative to
  the clean run (acceptance bar: >= 90% retained at 10% adversaries,
  while defense-off degrades measurably);
* **wasted bytes**: corrupted-piece traffic the downloaders had to
  discard and re-fetch;
* **detection quality**: quarantines vs. ground truth, including the
  false-positive ban rate (honest peers wrongly quarantined);
* **billing integrity**: inflated usage reports accepted (must be zero —
  the cross-check, not the reputation layer, carries that invariant).

Each cell is one deterministic scenario; cells differ only in the
``adversary`` leaf and the ``defense`` flag, so within a fraction the
defense-off and defense-on populations are identical peer for peer.
"""

from __future__ import annotations

from repro.adversary.profiles import AdversaryConfig
from repro.analysis import pct, render_table, trace_offload
from repro.core.config import SystemConfig
from repro.experiments.common import Experiment, ExperimentOutput
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
)

MB = 1024 * 1024

#: The swept adversarial fractions (0.0 = the clean baseline cell).
FRACTIONS = (0.0, 0.10, 0.25)

#: One profile mix for every adversarial cell: all five profiles, with the
#: damage-dealing ones (corrupter, slow-loris) weighted up so defense-off
#: degradation is visible even at the compact experiment scale.
ADVERSARY = AdversaryConfig(
    fraction=0.0,  # per-cell override
    profile_mix=(2.0, 1.0, 1.0, 1.0, 2.0),
    corruption_prob=0.5,
    slow_factor=0.02,
)


#: The sweep's (fraction, defense) cells: clean baseline, then each
#: fraction with defense off and on.
CELLS = ((0.0, False),) + tuple(
    (fraction, defense) for fraction in FRACTIONS[1:]
    for defense in (False, True))


def plan(scale: str, seed: int) -> list:
    """One scenario per :data:`CELLS` entry."""
    return [_cell_config(scale, seed, fraction, defense)
            for fraction, defense in CELLS]


def _cell_config(scale: str, seed: int, fraction: float,
                 defense: bool) -> ScenarioConfig:
    if scale == "standard":
        n_peers, downloads, days = 700, 900, 2.0
    else:
        n_peers, downloads, days = 260, 420, 1.5
    adversary = None
    if fraction > 0:
        adversary = AdversaryConfig(
            fraction=fraction,
            profile_mix=ADVERSARY.profile_mix,
            corruption_prob=ADVERSARY.corruption_prob,
            slow_factor=ADVERSARY.slow_factor,
        )
    return ScenarioConfig(
        seed=seed,
        duration_days=days,
        population=PopulationConfig(n_peers=n_peers),
        demand=DemandConfig(total_downloads=downloads, duration_days=days),
        catalog=CatalogConfig(objects_per_provider=8),
        adversary=adversary,
        system=SystemConfig().with_defense(enabled=defense),
    )


def render(artifacts, seed: int) -> ExperimentOutput:
    """Sweep adversarial fraction x defense on/off over one workload."""
    rows = []
    metrics: dict[str, float] = {}
    offloads: dict[tuple[float, bool], float] = {}
    for (fraction, defense), result in zip(CELLS, artifacts):
        adv = result.adversary
        offload = trace_offload(result.logstore)
        offloads[(fraction, defense)] = offload
        records = list(result.logstore.downloads)
        completed = sum(1 for r in records if r.outcome == "completed")
        completion = completed / len(records) if records else 0.0
        durations = [r.ended_at - r.started_at for r in records
                     if r.outcome == "completed"]
        mean_duration = sum(durations) / len(durations) if durations else 0.0
        peer_bytes = sum(r.peer_bytes for r in records)
        wasted = adv.get("corrupted_bytes_wasted", 0)
        # Corrupted pieces are discarded and re-fetched, so every wasted
        # byte is pure overhead on top of the useful peer traffic.
        wasted_fraction = wasted / (peer_bytes + wasted) if peer_bytes else 0.0

        tag = f"f{int(fraction * 100):02d}_{'on' if defense else 'off'}"
        metrics[f"offload_{tag}"] = offload
        metrics[f"completion_{tag}"] = completion
        metrics[f"mean_duration_{tag}"] = mean_duration
        metrics[f"wasted_fraction_{tag}"] = wasted_fraction
        metrics[f"corrupted_mb_{tag}"] = adv.get(
            "corrupted_bytes_wasted", 0) / MB
        metrics[f"inflated_accepted_{tag}"] = adv.get(
            "inflated_reports_accepted", 0)
        if defense:
            metrics[f"quarantines_{tag}"] = adv.get("quarantined_peers", 0)
            metrics[f"fp_ban_rate_{tag}"] = adv.get(
                "false_positive_ban_rate", 0.0)
        rows.append([
            pct(fraction),
            "on" if defense else "off",
            len(records),
            pct(completion),
            pct(offload),
            f"{wasted / MB:.0f}",
            pct(wasted_fraction),
            f"{mean_duration:.0f}s",
            adv.get("quarantined_peers", 0) if defense else "-",
            pct(adv.get("false_positive_ban_rate", 0.0)) if defense else "-",
            adv.get("inflated_reports_accepted", 0) if fraction else "-",
        ])

    clean = offloads[(0.0, False)]
    for fraction in FRACTIONS[1:]:
        tag = f"f{int(fraction * 100):02d}"
        if clean > 0:
            metrics[f"retention_{tag}_off"] = offloads[(fraction, False)] / clean
            metrics[f"retention_{tag}_on"] = offloads[(fraction, True)] / clean
    metrics["inflated_accepted_total"] = sum(
        v for k, v in metrics.items() if k.startswith("inflated_accepted_"))

    text = render_table(
        "adversarial resilience: fraction x defense sweep "
        f"(corruption p={ADVERSARY.corruption_prob}, "
        f"slow factor {ADVERSARY.slow_factor})",
        ["adversaries", "defense", "downloads", "completion", "peer offload",
         "corrupt MB", "wasted", "mean dl time", "quarantined", "FP ban rate",
         "inflated accepted"],
        rows,
    )
    lines = [text, ""]
    for fraction in FRACTIONS[1:]:
        tag = f"f{int(fraction * 100):02d}"
        off = metrics.get(f"retention_{tag}_off", 0.0)
        on = metrics.get(f"retention_{tag}_on", 0.0)
        lines.append(
            f"offload retention at {pct(fraction)} adversaries: "
            f"defense off {pct(off)}, defense on {pct(on)} "
            f"(clean baseline {pct(clean)} offload)")
        lines.append(
            f"wasted peer traffic at {pct(fraction)} adversaries: "
            f"defense off {pct(metrics[f'wasted_fraction_{tag}_off'])}, "
            f"defense on {pct(metrics[f'wasted_fraction_{tag}_on'])}")
    lines.append(
        f"inflated reports accepted across all cells: "
        f"{metrics['inflated_accepted_total']:.0f} (edge-log cross-check)")
    return ExperimentOutput(text="\n".join(lines), metrics=metrics)


ROW = Experiment(
    "Experiment: adversarial resilience — misbehaving peers vs. the defense.",
    render, plan)
