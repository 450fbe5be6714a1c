"""A compact, fully deterministic fault drill: one scenario, one report.

The drill is the operational counterpart of the fault-matrix experiment:
warm seeders, three waves of downloads placed *before*, *during*, and
*after* the fault window of a named scenario from the library, and a
report that shows the §3.8 robustness story end to end — what completed,
what fell back to edge-only delivery, and how fast the control plane
healed.

:func:`drill_config` writes the drill as a scripted
:class:`~repro.workload.scenario.ScenarioConfig`, which runs through
:func:`repro.runner.run_scenario_artifact` like any scenario;
:func:`drill_report` renders the artifact.  The same ``(scenario, seed)``
prints byte-identical text on every run, in any process — which makes the
drill a regression harness (``python -m repro faults --seed 42``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.report import pct, render_audit, render_table
from repro.core.config import InvariantConfig, SystemConfig
from repro.faults.metrics import FaultRecovery
from repro.faults.scenarios import DEFENSE_SCENARIOS, build_scenario
from repro.workload.population import DAY
from repro.workload.script import (
    Script, ScriptObject, Seeders, Wave, wave_records, wave_stats,
)

if TYPE_CHECKING:
    from repro.workload.scenario import ScenarioConfig

__all__ = ["DrillReport", "drill_config", "drill_report", "run_drill"]

MB = 1024 * 1024

#: The drill's waves, relative to the fault window (see :func:`drill_config`).
WAVES = ("before", "during", "after")

#: The one object the drill's seeders hold and its waves download.
DRILL_OBJECT = ScriptObject("drillco/drill.bin", 300 * MB, 9001, "DrillCo")


@dataclass
class DrillReport:
    """Everything a drill produced, plus its deterministic rendering."""

    scenario: str
    seed: int
    #: Injection timeline, one rendered line per apply/revert.
    timeline: list[str]
    recoveries: list[FaultRecovery]
    #: wave -> outcome summary (see :func:`repro.workload.script.wave_stats`).
    waves: dict[str, dict] = field(default_factory=dict)
    #: End-of-run control-channel robustness counters (retries, timeouts,
    #: breaker trips, degraded-seconds, time-to-recover, promotions).
    channel: dict[str, float] = field(default_factory=dict)
    #: End-of-run invariant-audit summary: counters plus any recorded
    #: violations (structured, deduplicated; see :mod:`repro.invariants`).
    invariants: dict = field(default_factory=dict)
    #: Adversarial-defense outcome (empty unless the run had adversaries or
    #: the reputation engine): wasted corrupted bytes, ban counts, the
    #: false-positive ban rate against ground truth, accounting outcomes.
    adversary: dict = field(default_factory=dict)
    text: str = ""

    def wave_stats(self, wave: str) -> dict[str, float]:
        """Outcome summary for one wave of downloads."""
        return self.waves.get(wave) or wave_stats([])

    def as_json(self) -> dict:
        """Machine-readable view of the drill (``repro faults --json``)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "timeline": list(self.timeline),
            "waves": {wave: self.wave_stats(wave) for wave in WAVES},
            "recoveries": [
                {
                    "fault": rec.fault,
                    "kind": rec.kind,
                    "applied_at": rec.applied_at,
                    "reverted_at": rec.reverted_at,
                    "connected_dip": rec.connected_dip,
                    "registrations_dip": rec.registrations_dip,
                    "time_to_reconnect": rec.time_to_reconnect,
                    "re_add_convergence": rec.re_add_convergence,
                }
                for rec in self.recoveries
            ],
            "channel": self.channel,
            "invariants": self.invariants,
            "adversary": self.adversary,
        }


def _fmt_opt_seconds(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}s"


def _render(report: DrillReport) -> str:
    lines = [
        f"fault drill: scenario={report.scenario} seed={report.seed}",
        "",
        "injection timeline",
        "------------------",
    ]
    lines.extend(report.timeline)
    rows = []
    for wave in WAVES:
        stats = report.wave_stats(wave)
        rows.append([
            wave,
            stats["downloads"],
            stats["completed"],
            pct(stats["completion_rate"]),
            stats["edge_only"],
            pct(stats["mean_peer_fraction"]),
        ])
    lines.append("")
    lines.append(render_table(
        "download waves (relative to the fault window)",
        ["wave", "downloads", "completed", "completion", "edge-only", "peer eff."],
        rows,
    ))
    rows = []
    for rec in report.recoveries:
        rows.append([
            rec.fault,
            rec.kind,
            f"{rec.applied_at:.1f}s",
            f"{rec.reverted_at:.1f}s" if rec.reverted_at is not None else "-",
            rec.connected_dip,
            rec.registrations_dip,
            _fmt_opt_seconds(rec.time_to_reconnect),
            _fmt_opt_seconds(rec.re_add_convergence),
        ])
    lines.append("")
    lines.append(render_table(
        "recovery metrics (§3.8)",
        ["fault", "kind", "applied", "reverted", "conns lost",
         "regs lost", "reconnect", "re-add conv."],
        rows,
    ))
    if report.channel:
        lines.append("")
        lines.append(render_table(
            "control-channel robustness",
            ["counter", "value"],
            [[key, value] for key, value in report.channel.items()],
        ))
    if report.adversary:
        lines.append("")
        lines.append(render_table(
            "adversarial defense (§6.2)",
            ["metric", "value"],
            [[key, value] for key, value in report.adversary.items()],
        ))
    if report.invariants:
        lines.append("")
        lines.append(render_audit("invariant audit", report.invariants))
    return "\n".join(lines)


def drill_config(
    scenario: str = "control_plane_blackout",
    seed: int = 42,
    *,
    n_seeders: int = 12,
    wave_size: int = 4,
    fault_at: float = 600.0,
    fault_duration: float = 3600.0,
    horizon: float = 12 * 3600.0,
    invariants: InvariantConfig | None = None,
) -> ScenarioConfig:
    """The drill of one library scenario, as a scripted config.

    Three waves of ``wave_size`` downloads, 15 s apart, start before the
    fault (in flight when it hits), inside the fault window (these see the
    degraded system from their first byte), and 15 minutes after it ends.
    A wave that would start at or past ``horizon`` raises ``ValueError``:
    it would report an empty wave instead of an outcome.

    ``invariants`` overrides the audit layer's configuration — the strict
    fault-matrix tests pass ``InvariantConfig(mode="strict")`` so a drill
    doubles as a conservation-law regression; the default inherits the
    usual env-resolved observe mode.
    """
    # Imported here: the workload layer imports the fault injector, so
    # this package loads before the scenario module can.
    from repro.workload.scenario import ScenarioConfig

    system = SystemConfig() if invariants is None \
        else SystemConfig(invariants=invariants)
    if scenario in DEFENSE_SCENARIOS:
        # Adversarial scenarios are pointless without the thing they test;
        # every other scenario keeps the defaults-off config (and therefore
        # its byte-identical pre-defense baseline).
        system = system.with_defense(enabled=True)
    faults = build_scenario(scenario, at=fault_at, duration=fault_duration)
    first = {
        "before": fault_at * 0.5,
        "during": fault_at + 0.25 * fault_duration,
        "after": fault_at + fault_duration + 900.0,
    }
    waves = tuple(
        Wave(wave, tuple(first[wave] + 15.0 * i for i in range(wave_size)))
        for wave in WAVES)
    late = [w.label for w in waves if w.starts and w.starts[-1] >= horizon]
    if late:
        raise ValueError(
            f"drill wave(s) {', '.join(late)} start at or past the "
            f"{horizon:.0f}s horizon; shorten --at/--duration")
    return ScenarioConfig(
        seed=seed,
        duration_days=horizon / DAY,
        system=system,
        faults=faults,
        script=Script(objects=(DRILL_OBJECT,),
                      seeders=(Seeders(n_seeders, DRILL_OBJECT.url),),
                      waves=waves),
    )


def drill_report(scenario: str, artifact) -> DrillReport:
    """Render a finished drill's :class:`~repro.runner.ScenarioArtifact`."""
    records = wave_records(artifact.script, artifact.logstore)
    report = DrillReport(
        scenario=scenario,
        seed=artifact.config.seed,
        timeline=list(artifact.timeline),
        recoveries=list(artifact.recoveries),
        waves={wave: wave_stats(batch) for wave, batch in records.items()},
        channel=artifact.stats.channel.as_dict(),
        invariants=artifact.audit_report(),
        adversary=artifact.adversary,
    )
    report.text = _render(report)
    return report


def run_drill(scenario: str = "control_plane_blackout", seed: int = 42,
              **options) -> DrillReport:
    """Run one scenario's drill (options as :func:`drill_config`)."""
    from repro.runner import run_scenario_artifact

    config = drill_config(scenario, seed, **options)
    return drill_report(scenario, run_scenario_artifact(config))
