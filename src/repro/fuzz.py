"""Seeded scenario fuzzing with strict invariants and greedy shrinking.

The fuzzer is the offensive half of the :mod:`repro.invariants` sanitizer:
:func:`generate` draws a randomized
:class:`~repro.workload.scenario.ScenarioConfig` from a string-seeded RNG,
:func:`run_spec` runs it under strict invariants through
:func:`repro.runner.run_scenario_artifact` (the path every experiment
takes, sharded or not), and when a run violates a conservation law,
:func:`shrink` walks the config back toward :func:`baseline` and
:func:`reproducer_script` prints a standalone script that replays it.
A failure found in CI replays exactly from its seed on any machine.

Used by ``tests/fuzz/`` (see TESTING.md); the slow sweep is marked
``fuzz`` and runs in its own CI job.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.adversary.profiles import PROFILES, AdversaryConfig
from repro.core.config import (
    ControlChannelConfig, DefenseConfig, InvariantConfig, SystemConfig,
)
from repro.faults.scenarios import build_scenario, scenario_names
from repro.invariants import InvariantViolationError
from repro.vod.config import POLICY_NAMES, VodConfig
from repro.workload.catalog import CatalogConfig
from repro.workload.demand import DemandConfig
from repro.workload.devices import PRESET_MIXES
from repro.workload.population import PopulationConfig
from repro.workload.scenario import ScenarioConfig
from repro.workload.sharding import ShardingConfig

__all__ = ["FuzzResult", "baseline", "generate", "run_spec", "run_seeds",
           "shrink", "reproducer_script"]

HOUR_DAYS = 1.0 / 24.0

#: Every fuzz run audits strictly and often.
STRICT = InvariantConfig(mode="strict", every_events=500)

#: The size leaves :func:`shrink` halves, each down to its floor (the
#: value :func:`baseline` holds).  ``duration_days`` is both the
#: scenario's horizon and the demand window; halving moves both.
SIZE_FLOORS = {"n_peers": 20, "total_downloads": 5,
               "duration_days": 2 * HOUR_DAYS}


@dataclass
class FuzzResult:
    """Outcome of one strict-invariant fuzz run."""

    config: ScenarioConfig
    #: None when the run was clean; the strict-mode exception otherwise.
    failure: Optional[InvariantViolationError]
    completed_downloads: int = 0
    warnings: int = 0
    #: The trace's two halves (:mod:`repro.runner.digest`); "" on failure.
    record_digest: str = ""
    event_digest: str = ""

    @property
    def ok(self) -> bool:
        return self.failure is None


def baseline(seed: int) -> ScenarioConfig:
    """The simplest config the fuzzer runs, and :func:`shrink`'s target:
    every size leaf at its floor, every optional block off."""
    days = SIZE_FLOORS["duration_days"]
    return ScenarioConfig(
        seed=seed, duration_days=days, system=SystemConfig(invariants=STRICT),
        population=PopulationConfig(n_peers=SIZE_FLOORS["n_peers"]),
        catalog=CatalogConfig(objects_per_provider=4),
        demand=DemandConfig(total_downloads=SIZE_FLOORS["total_downloads"],
                            duration_days=days),
        warm_copies_per_peer=1.0)


def generate(seed: int) -> ScenarioConfig:
    """Draw one randomized scenario config from a string-seeded RNG.

    Every draw sets a leaf that already exists on :class:`ScenarioConfig`;
    churn and pause/resume come from the population's session model and
    :class:`~repro.workload.behavior.UserBehavior`.  A sharded draw
    carries no faults: the region sharder rejects fault schedules, which
    target the global peer universe a region factoring cannot represent.
    The stream was bumped once, when the fuzzer stopped drawing a spec of
    its own and started drawing these leaves.
    """
    rng = random.Random(f"repro-fuzz-config:{seed}")
    days = rng.uniform(2.0, 10.0) * HOUR_DAYS
    sharding = None
    if rng.random() < 0.25:
        sharding = ShardingConfig(shards=rng.choice((1, 2, 4)))
    faults = ()
    if sharding is None and rng.random() < 0.7:
        faults = build_scenario(
            rng.choice(scenario_names()),
            at=rng.uniform(300.0, 0.4 * days * 86400.0),
            duration=rng.uniform(600.0, 3600.0))
    device = rng.choice((None, None, None) + tuple(PRESET_MIXES))
    vod = None
    if rng.random() < 0.3:
        vod = VodConfig(sessions=rng.randint(2, 12),
                        policy=rng.choice(POLICY_NAMES))
    adversary = None
    if rng.random() < 0.3:
        profile = rng.choice((None,) + PROFILES)  # None: the uniform mix
        adversary = AdversaryConfig(
            fraction=rng.choice((0.15, 0.3)),
            profile_mix=tuple(float(profile in (None, name))
                              for name in PROFILES))
    return ScenarioConfig(
        seed=seed,
        duration_days=days,
        system=SystemConfig(
            invariants=STRICT,
            channel=ControlChannelConfig(
                latency=rng.choice((0.0, 0.0, 0.05, 0.25)),
                loss_prob=rng.choice((0.0, 0.0, 0.02, 0.10))),
            edge_egress_mbps=rng.choice((None, None, 500.0, 2000.0)),
            defense=DefenseConfig(enabled=rng.random() < 0.5)),
        population=PopulationConfig(
            n_peers=rng.randint(40, 200),
            device=None if device is None else PRESET_MIXES[device]()),
        catalog=CatalogConfig(
            objects_per_provider=rng.randint(4, 20),
            p2p_enabled_fraction=rng.choice((0.017, 0.1, 0.3, 0.6, 1.0))),
        demand=DemandConfig(total_downloads=rng.randint(10, 120),
                            duration_days=days),
        warm_copies_per_peer=rng.choice((0.0, 1.0, 2.0, 4.0)),
        faults=faults, vod=vod, adversary=adversary, sharding=sharding)


def run_spec(config: ScenarioConfig) -> FuzzResult:
    """Run one config; a strict-mode violation is returned, not raised,
    so the sweep keeps fuzzing.  Picklable by reference: the pool's work
    unit.  A shard-isolation breach raises ``ValueError`` from the
    merge's reconcile pass and stops the sweep."""
    from repro.runner import event_digest, record_digest, run_scenario_artifact

    try:
        artifact = run_scenario_artifact(config)
    except InvariantViolationError as exc:
        return FuzzResult(config=config, failure=exc)
    return FuzzResult(
        config=config, failure=None,
        completed_downloads=sum(r.outcome == "completed"
                                for r in artifact.logstore.downloads),
        warnings=artifact.invariants.warnings,
        record_digest=record_digest(artifact),
        event_digest=event_digest(artifact))


def run_seeds(seeds: list[int], *, jobs: int = 1) -> list[FuzzResult]:
    """Run many seeds, optionally across a process pool, in seed order.

    The parallel sweep only *finds* failures; shrinking a failure stays
    serial (see :func:`shrink`) because each shrink step depends on the
    previous verdict.  Results come back in input order, so a CI sweep
    reports the same first-failing seed at every ``--jobs`` width.
    """
    from repro.runner import parallel_map

    return parallel_map(run_spec, [generate(s) for s in seeds], jobs=jobs)


# ---------------------------------------------------------------- shrinking

def _departures(value, base, path=()):
    """Paths at which ``value`` departs from ``base``: the outermost block
    where ``base`` has none (an optional block), else the leaf."""
    if value == base:
        return
    if dataclasses.is_dataclass(value) and type(value) is type(base):
        for f in dataclasses.fields(value):
            yield from _departures(getattr(value, f.name),
                                   getattr(base, f.name), path + (f.name,))
    else:
        yield path


def _get(config, path):
    for name in path:
        config = getattr(config, name)
    return config


def _set(config, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    return dataclasses.replace(
        config, **{head: _set(getattr(config, head), rest, value)})


def _steps(config: ScenarioConfig, base: ScenarioConfig):
    """Simplifications of ``config`` toward ``base``, most aggressive
    first: reset one optional block, then reset one other leaf, then
    halve one size leaf (every path with that name) toward its floor."""
    def is_leaf(path):  # not a whole block (a dataclass or a tuple)
        value = _get(config, path)
        return not (dataclasses.is_dataclass(value) or isinstance(value, tuple))

    paths = [p for p in _departures(config, base)
             if p[-1] not in SIZE_FLOORS]
    for path in sorted(paths, key=is_leaf):
        yield lambda c, p=path: _set(c, p, _get(base, p))
    for name, floor in SIZE_FLOORS.items():
        def halve(c, name=name, floor=floor):
            for path in _departures(c, base):
                value = _get(c, path)
                if path[-1] == name and value > floor:
                    c = _set(c, path, max(floor, type(value)(value / 2)))
            return c
        yield halve


def shrink(
    config: ScenarioConfig,
    *,
    still_fails: Optional[Callable[[ScenarioConfig], bool]] = None,
    max_attempts: int = 40,
) -> ScenarioConfig:
    """Greedily simplify a failing config while it keeps failing.

    Each round applies the simplifications of :func:`_steps` in order to
    the current config, keeping every one that still reproduces a
    strict-mode violation; the loop ends at a fixed point (a round that
    keeps nothing) or when the attempt budget runs out.  ``still_fails``
    is injectable for tests (defaults to re-running the config via
    :func:`run_spec`).
    """
    if still_fails is None:
        still_fails = lambda c: not run_spec(c).ok  # noqa: E731
    base = baseline(config.seed)
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for step in list(_steps(config, base)):
            candidate = step(config)
            if candidate == config:
                continue
            if attempts >= max_attempts:
                break
            attempts += 1
            if still_fails(candidate):
                config, progress = candidate, True
    return config


def _dataclass_types(value, found: dict) -> dict:
    """Every dataclass type reachable from ``value``, keyed by name."""
    if dataclasses.is_dataclass(value):
        found[type(value).__name__] = type(value)
        for f in dataclasses.fields(value):
            _dataclass_types(getattr(value, f.name), found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _dataclass_types(item, found)
    return found


def reproducer_script(config: ScenarioConfig) -> str:
    """A standalone script that replays ``config`` with strict invariants.

    Shown (and writable to disk) when a fuzz test fails, so the minimal
    scenario can be rerun under a debugger without the fuzz machinery.
    The config is embedded as its ``repr``, which evaluates back to an
    equal config under the imports the script opens with.
    """
    imports = "\n".join(
        f"from {cls.__module__} import {name}"
        for name, cls in sorted(_dataclass_types(config, {}).items()))
    return f'''\
"""Minimal reproducer for a strict-invariant violation found by the fuzzer.

Run with:  PYTHONPATH=src python reproduce_fuzz_{config.seed}.py
"""
from repro.fuzz import run_spec
{imports}

config = {config!r}
result = run_spec(config)
if result.failure is not None:
    raise SystemExit(f"still failing: {{result.failure}}")
print("no violation — the underlying bug is fixed")
'''
