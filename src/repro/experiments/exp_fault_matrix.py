"""Experiment: fault matrix — scenario sweep vs the §5.2 outcome numbers."""

from __future__ import annotations

import dataclasses

from repro.analysis import pct, render_table, window_outcomes
from repro.analysis.faults import fault_impact
from repro.experiments.common import (
    Experiment, ExperimentOutput, standard_config,
)
from repro.faults.scenarios import build_scenario
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
)

#: Paper §5.2 under normal operation: peer-assisted downloads complete 92%
#: of the time; the fault matrix measures how far each scenario pushes the
#: in-window outcome split away from that healthy baseline.
PAPER_P2P_COMPLETED = 0.92

#: Scenarios swept against the no-fault baseline.  A subset of the library:
#: the §3.8 robustness cases plus the two degradation modes that stress the
#: data plane rather than the control plane.
MATRIX_SCENARIOS = (
    "control_plane_blackout",
    "cn_flap",
    "dn_wipe",
    "edge_brownout",
    "churn_storm",
)

DAY = 86_400.0


def _matrix_config(scale: str, seed: int) -> ScenarioConfig:
    """The base (no-fault) configuration for one matrix cell.

    The matrix runs one full scenario per cell, so the ``small`` scale is
    deliberately leaner than the shared experiment trace; other scales
    reuse :func:`~repro.experiments.common.standard_config`.
    """
    if scale == "small":
        return ScenarioConfig(
            seed=seed,
            duration_days=2.0,
            population=PopulationConfig(n_peers=320),
            demand=DemandConfig(total_downloads=420, duration_days=2.0),
            catalog=CatalogConfig(objects_per_provider=20),
        )
    return standard_config(scale, seed)


def _matrix_window(base: ScenarioConfig) -> tuple[float, float]:
    # The fault holds for the second quarter of the trace, long enough for
    # a full download cohort to start (and finish) inside the window.
    fault_at = 0.25 * base.duration_days * DAY
    fault_duration = 0.25 * base.duration_days * DAY
    return (fault_at, fault_at + fault_duration)


def plan(scale: str, seed: int) -> list:
    """The no-fault baseline plus one cell per scenario."""
    base = _matrix_config(scale, seed)
    fault_at, end = _matrix_window(base)
    out = [base]
    for name in MATRIX_SCENARIOS:
        faults = build_scenario(name, at=fault_at, duration=end - fault_at)
        out.append(dataclasses.replace(base, faults=faults))
    return out


def render(artifacts, seed: int) -> ExperimentOutput:
    """Sweep the scenario library and tabulate in-window fault impact."""
    start, end = _matrix_window(artifacts[0].config)
    cells = {
        name: (artifact, window_outcomes(artifact.logstore, start, end))
        for name, artifact in zip(("baseline", *MATRIX_SCENARIOS), artifacts)
    }
    _, base_out = cells["baseline"]

    rows = [[
        "baseline",
        int(base_out["downloads"]),
        pct(base_out["completed"]),
        pct(base_out["edge_only"]),
        pct(base_out["mean_peer_fraction"]),
        "-", "-",
    ]]
    metrics: dict[str, float] = {
        "baseline_completed": base_out["completed"],
        "baseline_edge_only": base_out["edge_only"],
    }
    for name in MATRIX_SCENARIOS:
        result, out = cells[name]
        impact = fault_impact(base_out, out)
        rows.append([
            name,
            int(out["downloads"]),
            pct(out["completed"]),
            pct(out["edge_only"]),
            pct(out["mean_peer_fraction"]),
            pct(impact["completion_delta"]),
            pct(impact["fallback_delta"]),
        ])
        metrics[f"{name}_completed"] = out["completed"]
        metrics[f"{name}_edge_only"] = out["edge_only"]
        metrics[f"{name}_completion_delta"] = impact["completion_delta"]
        metrics[f"{name}_fallback_delta"] = impact["fallback_delta"]

    text = render_table(
        "fault matrix: downloads in flight during the fault window "
        f"[{start / 3600.0:.0f}h, {end / 3600.0:.0f}h) "
        f"(paper §5.2 healthy completion: {pct(PAPER_P2P_COMPLETED)})",
        ["scenario", "downloads", "completed", "edge-only", "peer eff.",
         "Δcompletion", "Δfallback"],
        rows,
    )

    recovery_rows = []
    for name in MATRIX_SCENARIOS:
        result, _ = cells[name]
        for rec in result.recoveries:
            recovery_rows.append([
                name,
                rec.fault,
                rec.connected_dip,
                rec.registrations_dip,
                "-" if rec.time_to_reconnect is None
                else f"{rec.time_to_reconnect:.0f}s",
                "-" if rec.re_add_convergence is None
                else f"{rec.re_add_convergence:.0f}s",
            ])
    text += "\n\n" + render_table(
        "recovery gauges (§3.8)",
        ["scenario", "fault", "conns lost", "regs lost",
         "reconnect", "re-add conv."],
        recovery_rows,
    )

    # Every matrix cell ran with the invariant sanitizer (observe or strict
    # per REPRO_INVARIANTS); surface the audit so a conservation regression
    # shows up next to the §5.2 numbers it would otherwise silently skew.
    audit_rows = []
    total_errors = 0
    for name in ("baseline", *MATRIX_SCENARIOS):
        result, _ = cells[name]
        inv = result.invariants
        total_errors += inv.errors
        audit_rows.append([
            name, inv.mode, inv.audits + inv.final_audits,
            inv.errors, inv.warnings,
        ])
        metrics[f"{name}_invariant_errors"] = float(inv.errors)
    metrics["invariant_errors_total"] = float(total_errors)
    text += "\n\n" + render_table(
        "invariant audit (repro.invariants)",
        ["scenario", "mode", "audits", "errors", "warnings"],
        audit_rows,
    )
    return ExperimentOutput(text=text, metrics=metrics)


ROW = Experiment(
    "Experiment: fault matrix — scenario sweep vs the §5.2 outcome numbers.",
    render, plan)
