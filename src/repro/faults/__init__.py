"""Deterministic fault injection and chaos scheduling.

The subsystem has four layers:

* :mod:`repro.faults.spec` — the declarative fault model
  (:class:`FaultSpec` subclasses: outages, wipes, blackouts, brownouts,
  degradation, rebinds, churn, flakiness);
* :mod:`repro.faults.injector` — the engine that applies and reverts
  faults on the simulator event loop, deterministically;
* :mod:`repro.faults.metrics` — recovery gauges (time-to-reconnect,
  RE-ADD convergence);
* :mod:`repro.faults.scenarios` / :mod:`repro.faults.drill` — the named
  scenario library and the drill config behind ``python -m repro faults``.

Trace-level impact analysis lives with the other analyses, in
:mod:`repro.analysis.faults`.
"""

from repro.faults.drill import (
    DrillReport, drill_config, drill_report, run_drill,
)
from repro.faults.injector import FaultInjector, InjectionEvent
from repro.faults.metrics import FaultRecovery, RecoveryTracker
from repro.faults.scenarios import (
    DEFENSE_SCENARIOS, SCENARIOS, build_scenario, scenario_names,
)
from repro.faults.spec import (
    AdversarialInfestation, CNOutage, ControlLatencySpike, ControlMessageLoss,
    ControlPlaneBlackout, DNWipe, EdgeBrownout, FaultSpec, FlakyUploader,
    InjectionContext, LinkDegradation, NATRebind, PeerChurnStorm,
    RegionPartition, ReputationWipe,
)

__all__ = [
    "FaultSpec", "InjectionContext",
    "CNOutage", "DNWipe", "ControlPlaneBlackout", "EdgeBrownout",
    "LinkDegradation", "NATRebind", "PeerChurnStorm", "FlakyUploader",
    "ControlMessageLoss", "ControlLatencySpike", "RegionPartition",
    "AdversarialInfestation", "ReputationWipe", "DEFENSE_SCENARIOS",
    "FaultInjector", "InjectionEvent",
    "FaultRecovery", "RecoveryTracker",
    "SCENARIOS", "build_scenario", "scenario_names",
    "DrillReport", "drill_config", "drill_report", "run_drill",
]
