"""The portable scenario result: what crosses process and disk boundaries.

A live :class:`~repro.workload.scenario.ScenarioResult` drags the whole
simulated system behind it — an event heap full of closures, peers wired
to control channels, an auditor holding checker callbacks.  None of that
survives :mod:`pickle`, and none of it is what the analysis layer reads.

:class:`ScenarioArtifact` is the closed, picklable projection the
experiments actually consume: the trace (:class:`LogStore`), the geo
database, topology and world, the end-of-run perf/robustness counters
(:class:`~repro.core.system.SystemStats`), the censuses, and the fault
timeline/recovery gauges.  Workers build artifacts; the orchestrator
ships them over the process pool and persists them in the result cache;
every table and figure renders from them byte-identically to an
in-process run.

:func:`run_scenario_artifact` is the process-pool entry point.  It is a
module-level function (picklable by reference) whose only input is the
:class:`ScenarioConfig` — every RNG inside :func:`run_scenario` is seeded
from the config alone, so a worker inherits nothing from its parent but
code.  The determinism test layer (``tests/runner/``) enforces that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.logstore import LogStore
from repro.core.system import SystemStats
from repro.faults.metrics import FaultRecovery, adversary_metrics
from repro.net.geo import GeoDatabase, World
from repro.net.topology import ASTopology
from repro.runner.fingerprint import fingerprint_config
from repro.workload.scenario import ScenarioConfig, ScenarioResult, run_scenario

__all__ = ["ScenarioArtifact", "artifact_from_result", "run_scenario_artifact"]


@dataclass
class ScenarioArtifact:
    """A finished scenario, reduced to its analysis-facing surface."""

    config: ScenarioConfig
    #: Content hash of ``config`` (see :mod:`repro.runner.fingerprint`).
    fingerprint: str
    #: The trace (downloads / logins / registrations).
    logstore: LogStore
    #: The EdgeScape-equivalent geolocation data set.
    geodb: GeoDatabase
    #: The synthetic AS-level topology (the CAIDA substitute).
    topology: ASTopology
    #: The synthetic world geography.
    world: World
    #: End-of-run perf, control-channel, and invariant counters.
    stats: SystemStats
    mobility_census: dict[str, int] = field(default_factory=dict)
    cloning_census: dict[str, int] = field(default_factory=dict)
    finalized_downloads: int = 0
    #: §3.8 recovery gauges, in fault-schedule order (empty if fault-free).
    recoveries: tuple[FaultRecovery, ...] = ()
    #: Injection timeline, already rendered (one line per apply/revert).
    timeline: tuple[str, ...] = ()
    #: Recorded invariant violations, as dicts (see
    #: :meth:`repro.invariants.InvariantViolation.as_dict`).
    violations: tuple[dict, ...] = ()
    #: Adversarial-defense outcome vs. ground truth (see
    #: :func:`repro.faults.metrics.adversary_metrics`); {} for honest,
    #: defenseless runs.
    adversary: dict = field(default_factory=dict)
    #: Region-shard record for sharded runs (see
    #: :mod:`repro.runner.sharding`): shard regions, resolved pool width,
    #: per-region peer counts, and — when ``reconcile`` is on — the
    #: cross-region reconciliation matrix.  {} for unsharded runs.
    sharding: dict = field(default_factory=dict)
    #: Device-tier record for tiered runs ({} without a device mix):
    #: ``census`` (class name -> install count) and ``classes``
    #: (guid -> class name, for per-class byte attribution).
    devices: dict = field(default_factory=dict)

    @property
    def invariants(self):
        """The end-of-run audit counters (`InvariantStats`)."""
        return self.stats.invariants

    def audit_report(self) -> dict:
        """Audit summary in the shape drill reports and ``repro audit`` use."""
        return self.invariants.summary(self.violations)

    def label(self) -> str:
        """Compact human identifier for perf tables and cache listings."""
        cfg = self.config
        return (f"seed={cfg.seed} peers={cfg.population.n_peers} "
                f"days={cfg.duration_days:g} fp={self.fingerprint[:12]}")


def artifact_from_result(
    result: ScenarioResult, fingerprint: str | None = None
) -> ScenarioArtifact:
    """Project a live :class:`ScenarioResult` onto its portable artifact."""
    injector = result.injector
    recoveries: tuple[FaultRecovery, ...] = ()
    timeline: tuple[str, ...] = ()
    if injector is not None:
        recoveries = tuple(
            injector.recoveries[spec.name]
            for spec in injector.specs if spec.name in injector.recoveries
        )
        timeline = tuple(str(event) for event in injector.timeline)
    return ScenarioArtifact(
        config=result.config,
        fingerprint=(fingerprint if fingerprint is not None
                     else fingerprint_config(result.config)),
        logstore=result.logstore,
        geodb=result.geodb,
        topology=result.topology,
        world=result.world,
        stats=result.system.stats(),
        mobility_census=result.mobility_census,
        cloning_census=result.cloning_census,
        finalized_downloads=result.finalized_downloads,
        recoveries=recoveries,
        timeline=timeline,
        violations=tuple(v.as_dict() for v in result.system.auditor.report()),
        adversary=adversary_metrics(result.system),
        devices=_device_record(result),
    )


def _device_record(result: ScenarioResult) -> dict:
    if result.config.population.device is None:
        return {}
    population = result.population
    return {
        "census": population.device_census(),
        "classes": population.device_classes(),
    }


def run_scenario_artifact(config: ScenarioConfig) -> ScenarioArtifact:
    """Worker entry point: run one scenario and return its artifact.

    Deterministic from ``config`` alone — :func:`run_scenario` seeds every
    RNG from the config, so the artifact is identical whether this runs in
    the parent process, a pool worker, or a worker with deliberately
    polluted global RNG state.

    A config with ``sharding`` set dispatches to the region sharder (see
    :mod:`repro.runner.sharding`), which factors the scenario per region,
    fans the sub-scenarios across its own pool, and merges — equally
    deterministic from the config alone.
    """
    if config.sharding is not None:
        from repro.runner.sharding import run_sharded_artifact

        return run_sharded_artifact(config)
    return artifact_from_result(run_scenario(config))
