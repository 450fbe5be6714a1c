"""Worker determinism: a pool worker reproduces the in-process bytes.

Two layers of proof: a hypothesis property over randomly drawn small
configs (any config the generator can express must run identically in a
worker), and a hostile-environment test where the worker's *global* RNGs
are deliberately polluted before it runs — the scenario must still land on
the pinned goldens, because every RNG in the system is instance-scoped and
seeded from the config alone.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.runner import (
    event_digest, fingerprint_config, parallel_map, record_digest,
    run_scenario_artifact,
)
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
)

pytestmark = pytest.mark.runner

GOLDEN_DIR = Path(__file__).parent.parent / "golden"


small_configs = st.builds(
    lambda seed, n_peers, downloads, days, warm: ScenarioConfig(
        seed=seed,
        duration_days=days,
        population=PopulationConfig(n_peers=n_peers),
        demand=DemandConfig(total_downloads=downloads, duration_days=days),
        catalog=CatalogConfig(objects_per_provider=5),
        warm_copies_per_peer=warm,
    ),
    seed=st.integers(min_value=0, max_value=10_000),
    n_peers=st.integers(min_value=30, max_value=80),
    downloads=st.integers(min_value=20, max_value=60),
    days=st.sampled_from((0.25, 0.5)),
    warm=st.sampled_from((0.0, 2.0, 4.0)),
)


@settings(max_examples=5, deadline=None)
@given(config=small_configs)
def test_worker_run_equals_in_process_run(config):
    in_process = run_scenario_artifact(config)
    # Two pool workers run the same config independently; both must agree
    # with the parent byte-for-byte on the whole analysis surface.
    for worker in parallel_map(run_scenario_artifact, [config, config], jobs=2):
        assert worker.fingerprint == in_process.fingerprint
        assert record_digest(worker) == record_digest(in_process)
        assert event_digest(worker) == event_digest(in_process)
        assert worker.timeline == in_process.timeline
        assert worker.violations == in_process.violations


def _pollute_global_rngs() -> None:
    """Worker initializer: trash every global RNG a lazy path could read."""
    random.seed(0xBAD5EED)
    try:
        import numpy
        numpy.random.seed(1_234_567)
    except ImportError:  # pragma: no cover
        pass


def test_polluted_worker_still_reproduces_the_goldens(monkeypatch):
    """A worker whose global RNG state is hostile still lands on the
    pinned golden bytes — the system uses no global randomness."""
    import repro.experiments.common as common
    from repro.experiments import exp_fig4, exp_table1
    from repro.runner import Orchestrator

    config = common.standard_config("small", 42)
    with ProcessPoolExecutor(
            max_workers=1, initializer=_pollute_global_rngs) as pool:
        artifact = pool.submit(run_scenario_artifact, config).result()
    assert artifact.fingerprint == fingerprint_config(config)

    # Render the experiments from the worker-produced artifact only.
    memo = {artifact.fingerprint: artifact}
    monkeypatch.setattr(common, "_ARTIFACTS", memo)
    monkeypatch.setattr(common, "_RUNNER", Orchestrator(memory=memo))
    for module, golden in ((exp_table1, "exp_table1_small_seed42.txt"),
                           (exp_fig4, "exp_fig4_small_seed42.txt")):
        expected = (GOLDEN_DIR / golden).read_text()
        assert module.run("small", 42).text == expected


def test_fuzz_seed_runs_identically_in_a_worker():
    from repro.fuzz import generate, run_seeds, run_spec

    parent = run_spec(generate(3))
    pooled = run_seeds([3, 4], jobs=2)[0]
    assert pooled.config == parent.config
    assert pooled.ok and parent.ok
    assert pooled.record_digest == parent.record_digest
    assert pooled.event_digest == parent.event_digest
    assert pooled.warnings == parent.warnings


def test_drill_report_identical_across_the_pool():
    """A drill is a scripted config: pool workers reproduce its artifact
    (records, counters, script record) and therefore its report."""
    from repro.faults import drill_config, drill_report

    config = drill_config("dn_wipe", 7, fault_duration=600.0)
    parent = run_scenario_artifact(config)
    text = drill_report("dn_wipe", parent).text
    for worker in parallel_map(run_scenario_artifact, [config, config], jobs=2):
        assert worker.fingerprint == parent.fingerprint
        assert record_digest(worker) == record_digest(parent)
        assert event_digest(worker) == event_digest(parent)
        assert worker.script == parent.script
        assert drill_report("dn_wipe", worker).text == text
