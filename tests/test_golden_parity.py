"""Golden-seed parity: experiment output pinned byte-for-byte.

The allocation engine's hard constraint is that batching must not move a
single float in the fixed-seed experiment pipeline.  These goldens were
rendered by the pre-batching per-mutation engine; the current engine must
reproduce them exactly.  If an intentional modelling change breaks them,
regenerate with::

    PYTHONPATH=src python -c "
    from repro.experiments import run_experiment
    for name in ('exp_table1', 'exp_fig4'):
        open(f'tests/golden/{name}_small_seed42.txt', 'w').write(run_experiment(name).text)"
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import common, run_experiment
from repro.runner import (
    Orchestrator, event_digest, record_digest, run_scenario_artifact,
)

from tests.scale.conftest import object_store_oracle

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["exp_table1", "exp_fig4"])
def test_small_scale_output_is_byte_identical(name):
    expected = (GOLDEN_DIR / f"{name}_small_seed42.txt").read_text()
    assert run_experiment(name, "small", 42).text == expected


@pytest.mark.parametrize("store", ["object", "columnar"])
def test_goldens_are_store_independent(store, monkeypatch):
    """Both population builds must reproduce the goldens exactly.

    The goldens were rendered by the eager object-graph population (now
    the ``tests/scale`` oracle); the columnar store's contract is
    byte-identical traces, so the same bytes must come out of either.
    The oracle is invisible to the config fingerprint, so its run gets a
    private memo.
    """
    expected = (GOLDEN_DIR / "exp_table1_small_seed42.txt").read_text()
    if store == "columnar":
        assert run_experiment("exp_table1", "small", 42).text == expected
        return
    memo: dict = {}
    monkeypatch.setattr(common, "_ARTIFACTS", memo)
    monkeypatch.setattr(common, "_RUNNER", Orchestrator(memory=memo))
    with object_store_oracle():
        assert run_experiment("exp_table1", "small", 42).text == expected


# --------------------------------------------------------------- streaming
#
# Table 1 and Fig 4 never start a stream.  Each line is ``name record
# event``: the two halves of :mod:`repro.runner.digest`.  The record column
# pins every record field a stream touches (``startup_delay``,
# ``rebuffer_events``, ``rebuffer_time``, ``watched_fraction``, ...); the
# event column pins the end-of-run counters.  A change that only moves
# counters re-records the event column alone.  Regenerate (only for an
# intentional change, and say which column moved) with::
#
#     PYTHONPATH=src python -c "
#     from tests.test_golden_parity import write_streaming_goldens
#     write_streaming_goldens()"

STREAMING_GOLDEN = GOLDEN_DIR / "vod_streaming_seed5.sha256"


def _streaming_configs():
    """The three tiny per-policy scenarios plus one that stalls and swarms.

    The tiny ones are edge-fed and never rebuffer; ``busy`` (0.5 s) has
    18 rebuffers and a fifth of its stream bytes from peers, so the
    steal / rebalance / requeue paths are pinned too.
    """
    from repro.vod import VodConfig
    from repro.workload import (
        CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
    )
    from tests.vod.test_experiment import _tiny_vod_configs

    named = {cfg.vod.policy: cfg for cfg in _tiny_vod_configs()}
    named["busy"] = ScenarioConfig(
        seed=5,
        duration_days=1.0,
        population=PopulationConfig(n_peers=200),
        demand=DemandConfig(total_downloads=30, duration_days=1.0),
        catalog=CatalogConfig(objects_per_provider=4),
        vod=VodConfig(sessions=50, n_series=1, episodes_per_series=2,
                      episode_minutes=10.0, policy="unrestricted"),
    )
    return named


def _halves(config) -> list[str]:
    artifact = run_scenario_artifact(config)
    return [record_digest(artifact), event_digest(artifact)]


def write_streaming_goldens() -> None:
    STREAMING_GOLDEN.write_text("".join(
        " ".join([name, *_halves(cfg)]) + "\n"
        for name, cfg in _streaming_configs().items()))


@pytest.mark.parametrize(
    "name", ["unrestricted", "isp_local", "popularity_seeding", "busy"])
def test_streaming_trace_digest_is_pinned(name):
    expected = {name: halves for name, *halves in
                map(str.split, STREAMING_GOLDEN.read_text().splitlines())}
    assert _halves(_streaming_configs()[name]) == expected[name]
