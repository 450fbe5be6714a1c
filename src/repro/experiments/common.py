"""Shared experiment machinery: the row type, standard scenarios, the runner.

Every table/figure draws on the same synthetic trace (like the paper: one
October-2012 log set feeds every analysis), so each distinct scenario
configuration is computed once and cached for the process.

An :class:`Experiment` row declares the scenarios it reads (``plan``) and
turns their artifacts into paper-style text (``render``); the runner in
:mod:`repro.experiments` resolves the plan and hands the artifacts over, so
a render never fetches a scenario itself and the plan a batch prefetches is
exactly what its renders read.

Caching is *content-addressed*: results are keyed by the configuration's
fingerprint (:func:`repro.runner.fingerprint_config`), never by loose
``(scale, seed)`` pairs — two experiments tweaking different knobs of the
same scale can no longer collide on a shared stale entry.  The module
holds one process-wide artifact store (``_ARTIFACTS``) that survives
runner reconfiguration, and an :class:`~repro.runner.Orchestrator` in
front of it that the CLI points at a process pool and an on-disk cache
(``repro run/study --jobs N``); libraries and tests get the serial,
memory-only default.

Scales:

* ``small``  — seconds; used by the shape checks in the test suite;
* ``standard`` — the calibrated flagship run (~1 min) used for
  EXPERIMENTS.md numbers;
* ``mobility`` — small population but long trace with mobility/cloning
  cranked up, for the §6.2 analyses that need many logins, and with a
  padded 239-territory world for Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.runner import Orchestrator, ResultCache, ScenarioArtifact
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
)

__all__ = ["Experiment", "ExperimentOutput", "standard_config",
           "standard_plan", "cached_results", "SCALES", "configure_runner"]

SCALES = ("small", "standard", "mobility")

#: Process-wide artifact store, fingerprint-keyed.  Shared by every
#: orchestrator this module configures, so a CLI ``--jobs`` flag changes
#: scheduling without forgetting already-computed scenarios.
_ARTIFACTS: dict[str, ScenarioArtifact] = {}

#: The active orchestrator.  Default: serial, memory-only — library users
#: and the test suite get exactly the old semantics.  The CLI swaps it via
#: :func:`configure_runner`.
_RUNNER = Orchestrator(memory=_ARTIFACTS)


@dataclass
class ExperimentOutput:
    """What every experiment render returns (the runner fills in ``name``)."""

    text: str                      # rendered table/series, paper-style
    metrics: dict[str, float] = field(default_factory=dict)
    name: str = ""


def configure_runner(
    *, jobs: int = 1, cache: Optional[ResultCache] = None
) -> Orchestrator:
    """Swap the active orchestrator (keeping the process-wide memo).

    ``jobs`` sets the process-pool width for cache misses; ``cache``
    attaches an on-disk :class:`~repro.runner.ResultCache`.  Returns the
    new orchestrator.
    """
    global _RUNNER
    _RUNNER = Orchestrator(jobs=jobs, cache=cache, memory=_ARTIFACTS)
    return _RUNNER


def standard_config(scale: str = "small", seed: int = 42) -> ScenarioConfig:
    """The scenario configuration for a named scale."""
    if scale == "small":
        return ScenarioConfig(
            seed=seed,
            duration_days=3.0,
            population=PopulationConfig(n_peers=900),
            demand=DemandConfig(total_downloads=1100, duration_days=3.0),
            catalog=CatalogConfig(objects_per_provider=40),
        )
    if scale == "standard":
        return ScenarioConfig(
            seed=seed,
            duration_days=7.0,
            population=PopulationConfig(n_peers=3000),
            demand=DemandConfig(total_downloads=3500, duration_days=7.0),
        )
    if scale == "mobility":
        return ScenarioConfig(
            seed=seed,
            duration_days=10.0,
            extra_territories=197,  # core world has 42 countries; 239 total
            population=PopulationConfig(n_peers=1200),
            demand=DemandConfig(total_downloads=800, duration_days=10.0),
            catalog=CatalogConfig(objects_per_provider=30),
        )
    raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")


def cached_results() -> dict[str, ScenarioArtifact]:
    """The scenario artifacts computed so far, keyed by config fingerprint.

    Lets callers (e.g. ``repro run --perf``) report perf counters for the
    scenarios a batch of experiments actually ran, without re-running them.
    """
    return _RUNNER.cached()


def standard_plan(scale: str, seed: int) -> list[ScenarioConfig]:
    """The default plan: the one standard trace at ``scale``."""
    return [standard_config(scale, seed)]


@dataclass(frozen=True)
class Experiment:
    """One row of the study table.

    ``plan(scale, seed)`` lists the scenario configs the row reads (empty
    for a row that runs no scenario); ``render(artifacts, seed)`` gets their
    artifacts in plan order and returns the paper-style output.  ``scale``
    pins the row to one scale whatever the caller asks for.
    """

    summary: str
    render: Callable[[list[ScenarioArtifact], int], ExperimentOutput]
    plan: Callable[[str, int], list[ScenarioConfig]] = standard_plan
    scale: Optional[str] = None

    def scale_for(self, scale: str) -> str:
        """The scale this row runs at when ``scale`` is asked for."""
        return self.scale or scale
