"""The array-native build contract: per-stream order, lazy GUIDs, row pools.

``build_columnar_store`` no longer walks peers one at a time: it drains
each RNG stream in its own loop and maps whole columns.  These tests pin
what that must still guarantee —

* the store equals the object-mode oracle on every column value and every
  materialized node, and all four streams (plus ``system._peer_seq``) end
  the build in the oracle's exact state, across block boundaries, with and
  without providers, device tiers, a session cap, a degenerate
  broadband tier and frequent NAT misclassification;
* a population-wide set-up hands out a handle only for rows it schedules
  something for, and derives no GUID at all (``Population.always_on`` is a
  view over the flag column that derives them when read);
* running a scenario pulls neither ``numpy.random`` nor ``numpy.ma`` into
  the process (each costs megabytes of RSS the small workloads notice).
"""

from __future__ import annotations

import random
import subprocess
import sys
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.config import ClientConfig, SystemConfig  # noqa: E402
from repro.core.system import NetSessionSystem  # noqa: E402
from repro.net.links import (  # noqa: E402
    DEFAULT_BROADBAND_TIERS, BroadbandModel, BroadbandTier,
)
from repro.workload import (  # noqa: E402
    CatalogConfig, CloningConfig, DemandConfig, MobilityConfig,
    PopulationConfig, ScenarioConfig, columnar,
)
from repro.workload.catalog import build_catalog  # noqa: E402
from repro.workload.columnar import LazyPeer  # noqa: E402
from repro.workload.devices import default_mix  # noqa: E402
from repro.workload.population import build_population  # noqa: E402
from repro.workload.scenario import run_scenario  # noqa: E402

from tests.conftest import env_with_src  # noqa: E402
from tests.scale.conftest import BUILDERS  # noqa: E402
from tests.scale.test_device_parity import DEVICE_ATTRS  # noqa: E402

pytestmark = pytest.mark.scale

#: Block size the property runs the build at, so a handful of peers
#: crosses block boundaries.
BLOCK = 8

#: One tier with a degenerate down range (draws nothing for it), which
#: forces ``BroadbandModel.draw_columns`` onto its scalar order.
DEGENERATE_TIERS = DEFAULT_BROADBAND_TIERS[:2] + (
    BroadbandTier("fixed", 0.3, (20.0, 20.0), (2.0, 4.0)),)


def _build(store, seed, n_peers, with_providers, device, cap, tiers,
           misclassify):
    """``(system, population, population rng)`` under one store."""
    system = NetSessionSystem(seed=seed)
    system.broadband = BroadbandModel(random.Random(seed ^ 0xB0B), tiers)
    system.nat_model.misclassify_prob = misclassify
    providers = []
    if with_providers:
        catalog = build_catalog(random.Random(seed ^ 0xCA7),
                                CatalogConfig(objects_per_provider=2))
        providers = catalog.providers
        for provider in providers:
            system.register_provider(provider)
    cfg = PopulationConfig(
        n_peers=n_peers, device=device, active_peer_cap=cap,
        attacker_fraction=0.1, broken_fraction=0.1)
    created = []

    class Recording(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            created.append(self)

    with mock.patch.object(random, "Random", Recording), \
            mock.patch.object(columnar, "_BLOCK", BLOCK):
        population = BUILDERS[store](system, providers, cfg)
    # build_population's first act is seeding the population stream.
    return system, population, created[0]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n_peers=st.sampled_from(
        [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK - 1, 3 * BLOCK + 1, 41]),
    with_providers=st.booleans(),
    device=st.sampled_from([None, default_mix()]),
    cap=st.sampled_from([None, 5]),
    tiers=st.sampled_from([DEFAULT_BROADBAND_TIERS, DEGENERATE_TIERS]),
    misclassify=st.sampled_from([0.02, 0.4]),
)
def test_array_build_equals_the_object_oracle(**shape):
    sys_o, pop_o, rng_o = _build("object", **shape)
    sys_c, pop_c, rng_c = _build("columnar", **shape)
    store = pop_c.store
    assert len(store) == pop_o.peer_count() == shape["n_peers"]

    # Every stream — and the peerN counter — ends where the oracle's does.
    assert rng_c.getstate() == rng_o.getstate()
    assert sys_c.rng.getstate() == sys_o.rng.getstate()
    assert sys_c.broadband._rng.getstate() == sys_o.broadband._rng.getstate()
    assert sys_c.nat_model._rng.getstate() == sys_o.nat_model._rng.getstate()
    assert sys_c._peer_seq == sys_o._peer_seq

    # Every column value, read dormant…
    nodes = list(pop_o.iter_peers())
    for row, node in enumerate(nodes):
        handle = store.handle(row)
        for attr in DEVICE_ATTRS:
            assert getattr(handle, attr) == getattr(node, attr), attr
        assert handle.country is sys_c.world.by_code[node.country.code]
        assert handle.city == node.city
        assert handle.asys == node.asys
        assert handle.nat_profile == node.nat_profile
        assert handle.tz_offset == pop_o.tz_offset[node.guid]
    assert store.materialized_count() == 0
    # …and in bulk, which is what the set-up scans read.
    for attr in ("uploads_enabled", "installed_from_cp", "geo_region",
                 "device", "asn"):
        assert pop_c.column(attr) == pop_o.column(attr), attr
    assert pop_c.always_on == pop_o.always_on
    assert pop_o.always_on == pop_c.always_on
    assert len(pop_c.always_on) == len(pop_o.always_on)
    assert sorted(pop_c.always_on) == sorted(pop_o.always_on)
    assert [n.guid in pop_c.always_on for n in nodes] \
        == [n.guid in pop_o.always_on for n in nodes]
    assert "no-such-guid" not in pop_c.always_on
    everyone = {n.guid for n in nodes}
    assert everyone - pop_c.always_on == everyone - pop_o.always_on
    assert pop_c.always_on & everyone == pop_o.always_on
    assert sys_c.stats().as_dict() == sys_o.stats().as_dict()

    # Every materialized node is the eager node.
    for row, node in enumerate(nodes):
        live = store.materialize(row)
        assert live.guid == node.guid
        assert live.link.tier == node.link.tier
        assert live.link.down_bps == node.link.down_bps
        assert live.link.up_bps == node.link.up_bps
        assert live.link.uplink.name == node.link.uplink.name
        assert live.nat_profile == node.nat_profile
        assert live.device == node.device
        assert live.lan_id == node.lan_id
        assert live.rng.getstate() == node.rng.getstate()
    # Bulk reads follow the live nodes once rows are materialized.
    store.materialize(0).uploads_enabled = False
    assert pop_c.column("uploads_enabled")[0] is False


def test_nat_profiles_are_interned_by_value():
    system = NetSessionSystem(seed=4)
    population = build_population(
        system, [], PopulationConfig(n_peers=3000))
    store = population.store
    types = len(system.nat_model.types)
    assert len(store._nats.objects) <= types * types + 1
    assert len({id(store.handle(i).nat_profile) for i in range(3000)}) \
        <= types * types


def _lean(n_peers, cap, seed=9):
    """An idle installed base: no mobility, cloning, warm caches or
    link-busy churn — the passes that act on (nearly) every install."""
    return ScenarioConfig(
        seed=seed,
        duration_days=1.0,
        system=SystemConfig(client=ClientConfig(link_busy_prob_per_hour=0.0)),
        population=PopulationConfig(n_peers=n_peers, active_peer_cap=cap),
        demand=DemandConfig(total_downloads=50, duration_days=1.0),
        catalog=CatalogConfig(objects_per_provider=4),
        mobility=MobilityConfig(commuter_fraction=0.0, roamer_fraction=0.0,
                                traveler_fraction=0.0),
        cloning=CloningConfig(affected_fraction=0.0),
        warm_copies_per_peer=0.0,
    )


def _scheduled_rows(system):
    """Store rows some pending event's callback holds a handle to."""
    rows = set()
    for _, _, event in system.sim._queue:
        callback = event.callback
        held = [getattr(callback, "__self__", None)]
        held += list(getattr(callback, "__defaults__", None) or ())
        rows.update(h._i for h in held if isinstance(h, LazyPeer))
    return rows


def test_setup_touches_only_the_rows_it_schedules():
    n_peers, cap = 20_000, 300
    # Stop before the event loop: this is about set-up alone.
    with mock.patch.object(NetSessionSystem, "run"):
        result = run_scenario(_lean(n_peers, cap))
    store = result.population.store
    assert len(store) == n_peers
    assert store.materialized_count() == 0

    scheduled = _scheduled_rows(result.system)
    # cap session schedules plus the ~2 % of rows with a settings toggle.
    assert cap <= len(scheduled) < cap + 0.05 * n_peers
    assert set(store._handles) == scheduled

    def derived():
        return {row for row, guid in enumerate(store.guids._cache)
                if guid is not None}

    # Nothing in set-up reads a GUID: booting a handle does not need one,
    # and counting the always-on set reads the flag column.
    always_on = set(store.always_on.nonzero()[0].tolist())
    assert 0 < len(result.population.always_on) == len(always_on) \
        < 0.25 * n_peers
    assert derived() == set()
    # Iterating the view derives the flagged rows' GUIDs and no others.
    assert len(set(result.population.always_on)) == len(always_on)
    assert derived() == always_on


def test_a_scenario_imports_no_numpy_random_or_ma():
    script = (
        "import sys, numpy\n"
        "before = {m for m in ('numpy.random', 'numpy.ma') if m in sys.modules}\n"
        "import repro\n"
        "from repro.workload import (DemandConfig, PopulationConfig,\n"
        "                            ScenarioConfig)\n"
        "from repro.workload.scenario import run_scenario\n"
        "run_scenario(ScenarioConfig(\n"
        "    seed=3, duration_days=0.25,\n"
        "    population=PopulationConfig(n_peers=150),\n"
        "    demand=DemandConfig(total_downloads=40, duration_days=0.25)))\n"
        "after = {m for m in ('numpy.random', 'numpy.ma') if m in sys.modules}\n"
        "assert after == before, sorted(after - before)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env_with_src())
    assert done.returncode == 0, done.stderr
