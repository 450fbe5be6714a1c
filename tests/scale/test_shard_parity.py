"""Scale-parity: golden experiments and sharded runs vs the seed semantics.

Two independence properties close the loop on the tentpole:

* **Store independence** — the flagship experiments render byte-identical
  text whether the population lives in the object graph (the
  ``tests/scale`` oracle, patched in) or the columnar store.  The oracle
  is invisible to the config fingerprint, so the memo is cleared between
  the two sides.
* **Width independence** — a region-sharded scenario produces the same
  value-canonical trace whether its shards run in-process (``shards=1``)
  or fanned across a process pool (``shards=4``), and whichever store the
  shard workers use.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import common, run_experiment
from repro.runner import (
    Orchestrator, event_digest, record_digest, run_scenario_artifact,
)
from repro.workload.sharding import ShardingConfig

from tests.scale.conftest import object_store_oracle, tiny_scenario

pytestmark = pytest.mark.scale


@pytest.fixture
def fresh_memo(monkeypatch):
    """Give the test its own (empty) artifact store, restored afterwards."""
    memo: dict = {}
    monkeypatch.setattr(common, "_ARTIFACTS", memo)
    monkeypatch.setattr(common, "_RUNNER", Orchestrator(memory=memo))
    return memo


@pytest.mark.parametrize("name", [
    "exp_table1",
    "exp_fig4",
    # The policy sweep runs four full scenarios per store; keep it out of
    # the tier-1 wall clock.
    pytest.param("exp_vod_policies", marks=pytest.mark.slow),
])
def test_experiment_text_is_store_independent(name, fresh_memo):
    with object_store_oracle():
        object_text = run_experiment(name, "small", 42).text
    fresh_memo.clear()  # same fingerprint: the columnar side must be cold
    columnar_text = run_experiment(name, "small", 42).text
    assert columnar_text == object_text


def _sharded(shards: int):
    return tiny_scenario(sharding=ShardingConfig(shards=shards))


def test_shard_width_does_not_change_the_trace():
    a1 = run_scenario_artifact(_sharded(1))
    a4 = run_scenario_artifact(_sharded(4))
    assert record_digest(a1) == record_digest(a4)
    assert event_digest(a1) == event_digest(a4)
    # Only the execution-width bookkeeping may differ.
    assert a1.sharding["shards"] == 1 and a4.sharding["shards"] == 4
    assert a1.sharding["regions"] == a4.sharding["regions"]
    assert a1.sharding["peers_per_region"] == a4.sharding["peers_per_region"]


def test_shard_reconciliation_is_clean():
    art = run_scenario_artifact(_sharded(2))
    reconcile = art.sharding["reconcile"]
    assert reconcile["guid_overlap"] == 0
    assert reconcile["cross_region_peer_bytes"] == 0
    assert sum(
        r["peers"] for r in reconcile["per_region"].values()
    ) == art.config.population.n_peers


def test_sharded_run_is_store_independent():
    with object_store_oracle():  # forked shard workers inherit the patch
        obj = run_scenario_artifact(_sharded(2))
    col = run_scenario_artifact(_sharded(2))
    assert record_digest(obj) == record_digest(col)
    assert event_digest(obj) == event_digest(col)


def test_sharded_and_unsharded_agree_on_totals():
    # Sharding factors the *workload* per region, so per-record traces
    # legitimately differ from the unsharded run — but conservation holds:
    # every download lands, every region keeps its apportioned peers.
    cfg = tiny_scenario()
    flat = run_scenario_artifact(cfg)
    shard = run_scenario_artifact(
        dataclasses.replace(cfg, sharding=ShardingConfig(shards=2))
    )
    assert len(shard.logstore.downloads) == len(flat.logstore.downloads)
    assert sum(shard.sharding["peers_per_region"].values()) == \
        cfg.population.n_peers
