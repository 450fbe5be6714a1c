"""Shared experiment machinery: standard scenarios, caching, output type.

Every table/figure runner draws on the same synthetic trace (like the
paper: one October-2012 log set feeds every analysis), so each distinct
scenario configuration is computed once and cached for the process.

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
from typing import Optional

from repro.runner import Orchestrator, ResultCache, ScenarioArtifact
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
)

__all__ = ["ExperimentOutput", "standard_config", "standard_result",
           "scenario_result", "prefetch", "cached_results", "SCALES",
           "configure_runner"]

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
    """What every experiment runner returns."""

    name: str
    text: str                      # rendered table/series, paper-style
    metrics: dict[str, float] = field(default_factory=dict)


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


def scenario_result(config: ScenarioConfig) -> ScenarioArtifact:
    """Run (or fetch from the fingerprint-keyed cache) one scenario."""
    return _RUNNER.result(config)


def standard_result(scale: str = "small", seed: int = 42) -> ScenarioArtifact:
    """Run (or fetch from cache) the standard scenario at a scale."""
    return scenario_result(standard_config(scale, seed))


def prefetch(configs: list[ScenarioConfig]) -> list[ScenarioArtifact]:
    """Resolve many scenarios at once — the parallel fan-out entry point.

    Deduplicates by fingerprint and schedules the misses across the active
    orchestrator's process pool; the experiments that later ask for these
    configs render from cache hits, in whatever order the caller runs
    them.  Returns the artifacts in input order.
    """
    return _RUNNER.run_many(configs)


def cached_results() -> dict[str, ScenarioArtifact]:
    """The scenario artifacts computed so far, keyed by config fingerprint.

    Lets callers (e.g. ``repro run --perf``) report perf counters for the
    scenarios a batch of experiments actually ran, without re-running them.
    """
    return _RUNNER.cached()
