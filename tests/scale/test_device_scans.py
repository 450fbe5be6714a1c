"""Class-filtered population scans: store- and width-independent.

``iter_peers(device_class=...)`` and ``sample_peers(..., device_class=...)``
are the sanctioned ways to touch one tier; they must pick the identical
creation-order peers whichever store backs the population, stay dormant
on the columnar store, and survive region sharding (a tiered scenario's
trace is the same at any shard width).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.runner import event_digest, record_digest, run_scenario_artifact
from repro.workload.devices import default_mix, router_heavy
from repro.workload.sharding import ShardingConfig

from tests.scale.conftest import build_store_world, tiny_scenario

pytestmark = pytest.mark.scale

CLASSES = ("desktop", "smartrouter", "mobile", "settop")


def _both(**overrides):
    return (
        build_store_world("object", 11, **overrides)[2],
        build_store_world("columnar", 11, **overrides)[2],
    )


@pytest.mark.parametrize("cap", [None, 12])
def test_filtered_iteration_matches_across_stores(cap):
    pop_o, pop_c = _both(n_peers=60, device=default_mix(),
                         active_peer_cap=cap)
    for cls in CLASSES:
        obj_guids = [p.guid for p in pop_o.iter_peers(device_class=cls)]
        col_guids = [p.guid for p in pop_c.iter_peers(device_class=cls)]
        assert col_guids == obj_guids
    # Per-class scans partition the population exactly.
    total = sum(
        len(list(pop_c.iter_peers(device_class=cls))) for cls in CLASSES)
    assert total == pop_c.peer_count()
    # Filtering reads the device column only — nobody materialized.
    assert pop_c.store.materialized_count() == 0


def test_filtered_iteration_without_tiers_is_all_desktop():
    pop_o, pop_c = _both(n_peers=20)
    for pop in (pop_o, pop_c):
        assert len(list(pop.iter_peers(device_class="desktop"))) == 20
        assert list(pop.iter_peers(device_class="mobile")) == []


@pytest.mark.parametrize("cls", ["smartrouter", "mobile"])
def test_filtered_sampling_draws_the_same_peers(cls):
    pop_o, pop_c = _both(n_peers=60, device=router_heavy())
    obj_pick = pop_o.sample_peers(random.Random(7), 5, device_class=cls)
    col_pick = pop_c.sample_peers(random.Random(7), 5, device_class=cls)
    assert [p.guid for p in col_pick] == [p.guid for p in obj_pick]
    assert all(p.device_class == cls for p in col_pick)
    # The draw depends only on the filtered tier size, so it consumes the
    # same RNG stream either way; an oversized k clamps to the tier.
    tier = len(list(pop_c.iter_peers(device_class=cls)))
    big = pop_c.sample_peers(random.Random(3), tier + 50, device_class=cls)
    assert len(big) == tier
    assert pop_c.store.materialized_count() == 0


def test_unfiltered_sampling_is_unchanged_by_the_device_leaf():
    # device=None populations must draw exactly as before the tier work:
    # one rng.sample over the creation-order index space.
    pop_o, pop_c = _both(n_peers=40)
    obj_pick = pop_o.sample_peers(random.Random(9), 6)
    col_pick = pop_c.sample_peers(random.Random(9), 6)
    assert [p.guid for p in col_pick] == [p.guid for p in obj_pick]


def _tiered_sharded(shards: int):
    base = tiny_scenario()
    return dataclasses.replace(
        base,
        population=dataclasses.replace(base.population, device=default_mix()),
        sharding=ShardingConfig(shards=shards),
    )


def test_shard_width_does_not_change_the_tiered_trace():
    a1 = run_scenario_artifact(_tiered_sharded(1))
    a4 = run_scenario_artifact(_tiered_sharded(4))
    assert record_digest(a1) == record_digest(a4)
    assert event_digest(a1) == event_digest(a4)
    # Device records merge across shards: same census, same class map.
    assert a1.devices["census"] == a4.devices["census"]
    assert a1.devices["classes"] == a4.devices["classes"]
    assert sum(a1.devices["census"].values()) == \
        a1.config.population.n_peers
