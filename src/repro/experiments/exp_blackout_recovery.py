"""Experiment: blackout recovery — probe-driven return from edge-only mode.

The §3.8 story the control channel makes measurable: a 10-minute total
control-plane blackout hits a small fleet mid-download, with *self
recovery* enabled — the restore brings the servers back but schedules no
reconnections, so every peer must find its own way home through the
channel's breaker probes.  The experiment verifies the acceptance bar of
the reliability layer:

* every peer whose breaker tripped is back in hybrid mode within one
  probe interval of the restore;
* the robustness counters show non-zero time-to-recover and
  degraded-seconds;
* downloads that *started inside* the blackout (edge-only from their
  first byte) are promoted back to hybrid mid-transfer and end with
  peer bytes on the wire.

Links are pinned to fixed speeds (not sampled) so the wave timing is
insensitive to the broadband mix: the during-blackout downloads are
provably still in flight when the probes succeed.  The fleet is a
:class:`~repro.workload.script.Script`, so the run is an ordinary cached
scenario.
"""

from __future__ import annotations

from repro.analysis.report import pct, render_table
from repro.core.config import SystemConfig
from repro.experiments.common import ExperimentOutput, scenario_result
from repro.faults.spec import ControlPlaneBlackout
from repro.workload import DAY, ScenarioConfig
from repro.workload.script import (
    Script, ScriptObject, Seeders, Wave, wave_records, wave_stats,
)

MB = 1024 * 1024

#: Blackout window: 10 minutes starting at t=600s.
FAULT_AT = 600.0
FAULT_DURATION = 600.0
HORIZON = 4 * 3600.0

WAVES = ("before", "during", "after")
#: First download of each wave, seconds (subsequent ones stagger by 30s).
WAVE_TIMES = {
    "before": 300.0,                            # hybrid when the fault hits
    "during": FAULT_AT + 100.0,                 # edge-only from byte one
    "after": FAULT_AT + FAULT_DURATION + 300.0, # control plane healthy again
}

#: 3 GB at the pinned 20 Mbit/s downlink needs ~20 min edge-only, so a
#: download started inside the 10-minute blackout is still in flight when
#: the probes fire.
RESTORE = ScriptObject("blackoutco/restore.bin", 3 * 1024 * MB, 9002,
                       "BlackoutCo")


def _config(scale: str, seed: int) -> ScenarioConfig:
    wave_size = 8 if scale == "standard" else 4
    n_seeders = 24 if scale == "standard" else 12
    # A short soft-state TTL makes the seeders' periodic refresh (ttl/3)
    # land inside the blackout window: their refresh RPCs fail, trip the
    # breaker, and the recovery probes re-register them minutes — not
    # hours — after the restore, which is what repopulates the directory
    # for the promoted mid-blackout downloads.
    return ScenarioConfig(
        seed=seed,
        duration_days=HORIZON / DAY,
        system=SystemConfig().with_control_plane(registration_ttl=900.0),
        faults=(ControlPlaneBlackout("blackout", start=FAULT_AT,
                                     duration=FAULT_DURATION,
                                     self_recovery=True),),
        script=Script(
            objects=(RESTORE,),
            seeders=(Seeders(n_seeders, RESTORE.url, link=(30.0, 10.0)),),
            waves=tuple(
                Wave(wave,
                     tuple(WAVE_TIMES[wave] + 30.0 * i for i in range(wave_size)),
                     link=(20.0, 4.0))
                for wave in WAVES)),
    )


def configs(scale: str, seed: int) -> list:
    """Scenario plan: the one scripted blackout run."""
    return [_config(scale, seed)]


def run(scale: str = "small", seed: int = 42) -> ExperimentOutput:
    """One 10-minute self-recovery blackout against a pinned-link fleet."""
    artifact = scenario_result(_config(scale, seed))
    cfg = artifact.config.system.channel
    records = wave_records(artifact.script, artifact.logstore)

    # ---- recovery latency: probe-driven return after the restore ----------
    restore_t = FAULT_AT + FAULT_DURATION
    tripped = [(trips, recovered_at) for trips, recovered_at
               in artifact.script["breakers"].values() if trips > 0]
    recovered = [at for _, at in tripped if at is not None]
    lags = [at - restore_t for at in recovered]
    max_lag = max(lags) if lags else 0.0
    all_within_probe = (
        len(recovered) == len(tripped)
        and all(lag <= cfg.probe_interval for lag in lags)
    )

    stats = artifact.stats.channel
    during = records["during"]
    promoted_with_peer_bytes = sum(1 for s in during if s.peer_bytes > 0)

    rows = []
    metrics: dict[str, float] = {}
    for wave in WAVES:
        summary = wave_stats(records[wave])
        n, completed = summary["downloads"], summary["completed"]
        hybrid = n - summary["edge_only"]
        rows.append([wave, n, completed, hybrid,
                     pct(summary["mean_peer_fraction"])])
        metrics[f"{wave}_downloads"] = n
        metrics[f"{wave}_completed"] = completed
        metrics[f"{wave}_hybrid"] = hybrid
    text = render_table(
        f"blackout recovery: {FAULT_DURATION / 60:.0f}-minute self-recovery "
        f"blackout at t={FAULT_AT:.0f}s (probe interval "
        f"{cfg.probe_interval:.0f}s)",
        ["wave", "downloads", "completed", "hybrid", "peer eff."],
        rows,
    )

    robustness = [
        ["peers tripped to degraded", len(tripped)],
        ["peers recovered", len(recovered)],
        ["max recovery lag after restore", f"{max_lag:.1f}s"],
        ["all back within one probe interval", "yes" if all_within_probe else "NO"],
        ["breaker trips", stats.breaker_trips],
        ["probes (failed)", f"{stats.probes} ({stats.probe_failures})"],
        ["degraded seconds", f"{stats.degraded_seconds:.1f}"],
        ["mean time to recover", f"{stats.mean_time_to_recover:.1f}s"],
        ["sessions promoted to hybrid", stats.sessions_promoted],
        ["blackout-started downloads with peer bytes",
         f"{promoted_with_peer_bytes}/{len(during)}"],
    ]
    text += "\n\n" + render_table(
        "control-channel robustness (§3.8)", ["metric", "value"], robustness,
    )

    metrics.update({
        "peers_tripped": len(tripped),
        "peers_recovered": len(recovered),
        "max_recovery_lag": max_lag,
        "all_within_probe_interval": 1.0 if all_within_probe else 0.0,
        "breaker_trips": stats.breaker_trips,
        "degraded_seconds": stats.degraded_seconds,
        "mean_time_to_recover": stats.mean_time_to_recover,
        "sessions_promoted": stats.sessions_promoted,
        "during_with_peer_bytes": promoted_with_peer_bytes,
    })
    return ExperimentOutput(name="blackout_recovery", text=text, metrics=metrics)
