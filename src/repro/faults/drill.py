"""A compact, fully deterministic fault drill: one scenario, one report.

The drill is the operational counterpart of the fault-matrix experiment:
a small population with warm seeders, three waves of downloads placed
*before*, *during*, and *after* the fault window of a named scenario from
the library, and a report that shows the §3.8 robustness story end to
end — what completed, what fell back to edge-only delivery, and how fast
the control plane healed.

Everything runs on simulated time from seeded RNGs, so the same
``(scenario, seed)`` produces byte-identical report text on every run —
that property is what makes the drill usable as a regression harness
(``python -m repro faults --scenario control_plane_blackout --seed 42``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import pct, render_audit, render_table
from repro.core.config import InvariantConfig, SystemConfig
from repro.core.content import ContentObject, ContentProvider
from repro.core.peer import CacheEntry, PeerNode
from repro.core.swarm import DownloadSession
from repro.core.system import NetSessionSystem
from repro.faults.injector import FaultInjector, InjectionEvent
from repro.faults.metrics import FaultRecovery, adversary_metrics
from repro.faults.scenarios import DEFENSE_SCENARIOS, build_scenario

__all__ = ["DrillReport", "DrillRequest", "PortableDrillReport",
           "adversary_metrics", "run_drill", "run_drill_portable"]

MB = 1024 * 1024

#: The drill's waves: label -> when downloads start, relative to the fault
#: window (fractions of the hold period; see :func:`run_drill`).
WAVES = ("before", "during", "after")


@dataclass
class DrillReport:
    """Everything a drill produced, plus its deterministic rendering."""

    scenario: str
    seed: int
    timeline: list[InjectionEvent]
    recoveries: list[FaultRecovery]
    #: wave -> list of finished sessions (state inspected post-run).
    sessions: dict[str, list[DownloadSession]] = field(default_factory=dict)
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
        sessions = self.sessions.get(wave, [])
        n = len(sessions)
        if n == 0:
            return {"downloads": 0, "completed": 0, "completion_rate": 0.0,
                    "edge_only": 0, "mean_peer_fraction": 0.0}
        completed = sum(1 for s in sessions if s.state == "completed")
        edge_only = sum(1 for s in sessions if s.peer_bytes == 0)
        mean_pf = sum(s.peer_fraction for s in sessions) / n
        return {
            "downloads": n,
            "completed": completed,
            "completion_rate": completed / n,
            "edge_only": edge_only,
            "mean_peer_fraction": mean_pf,
        }

    def as_json(self) -> dict:
        """Machine-readable view of the drill (``repro faults --json``)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "timeline": [str(e) for e in self.timeline],
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
    lines.extend(str(e) for e in report.timeline)
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


def run_drill(
    scenario: str = "control_plane_blackout",
    seed: int = 42,
    *,
    n_seeders: int = 12,
    wave_size: int = 4,
    fault_at: float = 600.0,
    fault_duration: float = 3600.0,
    horizon: float = 12 * 3600.0,
    invariants: InvariantConfig | None = None,
) -> DrillReport:
    """Run one scenario against a compact system and report the outcome.

    Three waves of ``wave_size`` downloads each start before the fault
    (in flight when it hits), inside the fault window (these see the
    degraded system from their first byte), and after recovery begins.

    ``invariants`` overrides the audit layer's configuration — the strict
    fault-matrix tests pass ``InvariantConfig(mode="strict")`` so a drill
    doubles as a conservation-law regression; the default inherits the
    usual env-resolved observe mode.  The end-of-run audit summary (and
    any recorded violations) lands in ``DrillReport.invariants``.
    """
    config = SystemConfig() if invariants is None \
        else SystemConfig(invariants=invariants)
    if scenario in DEFENSE_SCENARIOS:
        # Adversarial scenarios are pointless without the thing they test;
        # every other scenario keeps the defaults-off config (and therefore
        # its byte-identical pre-defense baseline).
        config = config.with_defense(enabled=True)
    system = NetSessionSystem(config, seed=seed)
    provider = ContentProvider(cp_code=9001, name="DrillCo")
    obj = ContentObject("drillco/drill.bin", 300 * MB, provider, p2p_enabled=True)
    system.publish(obj)

    country = system.world.by_code["DE"]
    for _ in range(n_seeders):
        seeder = system.create_peer(country=country, uploads_enabled=True)
        seeder.cache[obj.cid] = CacheEntry(obj.cid, completed_at=0.0)
        seeder.boot()

    specs = build_scenario(scenario, at=fault_at, duration=fault_duration)
    injector = FaultInjector(system, specs, seed=seed)
    injector.arm()

    sessions: dict[str, list[DownloadSession]] = {w: [] for w in WAVES}
    wave_times = {
        "before": fault_at * 0.5,
        "during": fault_at + 0.25 * fault_duration,
        "after": fault_at + fault_duration + 900.0,
    }

    def start_wave(wave: str, peer: PeerNode) -> None:
        # A churned peer may be offline right now; its wave slot is skipped
        # rather than rescheduled, keeping the timeline trivially replayable.
        if not peer.online:
            return
        sessions[wave].append(peer.start_download(obj))

    for wave in WAVES:
        for i in range(wave_size):
            peer = system.create_peer(country=country, uploads_enabled=True)
            peer.boot()
            system.sim.schedule_at(
                wave_times[wave] + 15.0 * i,
                lambda w=wave, p=peer: start_wave(w, p),
            )

    system.run(until=horizon)
    system.finalize_open_downloads()
    violations = system.audit(final=True)

    report = DrillReport(
        scenario=scenario,
        seed=seed,
        timeline=list(injector.timeline),
        recoveries=[injector.recoveries[s.name] for s in injector.specs
                    if s.name in injector.recoveries],
        sessions=sessions,
        channel=system.channel_stats.as_dict(),
        invariants=system.auditor.stats.summary(
            v.as_dict() for v in violations),
        adversary=adversary_metrics(system),
    )
    report.text = _render(report)
    return report


@dataclass(frozen=True)
class DrillRequest:
    """One drill, fully specified — the process-pool work unit.

    A frozen value object so ``repro faults --all --jobs N`` can ship the
    whole scenario library across a process pool; the worker rebuilds the
    drill from the request alone (all RNGs are seeded from it).
    """

    scenario: str
    seed: int = 42
    fault_at: float = 600.0
    fault_duration: float = 3600.0


@dataclass(frozen=True)
class PortableDrillReport:
    """The picklable face of a :class:`DrillReport`.

    A live report holds finished :class:`DownloadSession` objects (wired
    into the simulated system, unpicklable by design); workers return this
    projection instead — the rendered text plus the machine-readable view,
    which is everything the CLI and CI artifacts consume.
    """

    scenario: str
    seed: int
    text: str
    data: dict


def run_drill_portable(request: DrillRequest) -> PortableDrillReport:
    """Process-pool entry point: run one drill, return its portable report.

    Deterministic from the request alone, so scenario-parallel drills
    print byte-identical reports regardless of job count or worker RNG
    state (the runner test layer enforces the same property for
    scenarios).
    """
    report = run_drill(
        request.scenario, request.seed,
        fault_at=request.fault_at, fault_duration=request.fault_duration,
    )
    return PortableDrillReport(
        scenario=request.scenario,
        seed=request.seed,
        text=report.text,
        data=report.as_json(),
    )
