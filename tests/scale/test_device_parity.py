"""Device-tier parity: heterogeneous classes are a pure leaf extension.

Two properties pin the tentpole down:

* **Build parity** — with a device mix enabled, the columnar store's
  packed device columns report the exact class, NAT override, always-on
  flag, and session schedule the eager object build produces, without
  materializing a single peer, and every shared RNG stream ends the
  build at the identical position.
* **Trace parity** — a whole tiered scenario (uplink caps, cache
  budgets, class-driven sessions, mobility and busy-hour modifiers all
  live) produces a byte-identical value-canonical trace under both
  stores.
"""

from __future__ import annotations

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.runner import (  # noqa: E402
    event_digest, record_digest, run_scenario_artifact,
)
from repro.workload.devices import PRESET_MIXES, default_mix  # noqa: E402

from tests.scale.conftest import (  # noqa: E402
    build_store_world, object_store_oracle, tiny_scenario,
)
from tests.scale.test_columnar_equivalence import DORMANT_ATTRS  # noqa: E402

pytestmark = pytest.mark.scale

#: Device fields readable without materializing (``device`` returns the
#: interned DeviceClass itself; ``device_class`` its name).
DEVICE_ATTRS = DORMANT_ATTRS + ("device", "device_class")

device_shapes = dict(
    seed=st.integers(0, 2**20),
    n_peers=st.integers(1, 50),
    mix_name=st.sampled_from(["balanced", "router_heavy", "mobile_heavy"]),
    attacker=st.sampled_from([0.0, 0.1]),
    cap=st.sampled_from([None, 10]),
)


def _build_both(seed, n_peers, mix_name, attacker, cap):
    overrides = dict(
        n_peers=n_peers,
        device=PRESET_MIXES[mix_name](),
        attacker_fraction=attacker,
        active_peer_cap=cap,
    )
    return (
        build_store_world("object", seed, **overrides),
        build_store_world("columnar", seed, **overrides),
    )


@settings(max_examples=20, deadline=None)
@given(**device_shapes)
def test_tiered_build_is_dormant_equal(seed, n_peers, mix_name, attacker, cap):
    (sys_o, _, pop_o), (sys_c, _, pop_c) = _build_both(
        seed, n_peers, mix_name, attacker, cap)
    store = pop_c.store
    assert store is not None and len(store) == pop_o.peer_count()

    for node, handle in zip(pop_o.iter_peers(), pop_c.iter_peers()):
        for attr in DEVICE_ATTRS:
            assert getattr(handle, attr) == getattr(node, attr), attr
        # Class NAT overrides (smartrouter port-forwarding) must agree.
        assert handle.nat_profile == node.nat_profile
    # The whole sweep above — device columns included — was dormant.
    assert store.materialized_count() == 0

    # Tier bookkeeping matches: census, guid→class map, always-on set
    # (class always_on_prob ORs into the base draw), session schedule.
    assert pop_c.device_census() == pop_o.device_census()
    assert pop_c.device_classes() == pop_o.device_classes()
    assert pop_c.always_on == pop_o.always_on
    assert dict(pop_c.tz_offset) == dict(pop_o.tz_offset)
    assert sys_c.stats().as_dict() == sys_o.stats().as_dict()

    # Device draws consume the same stream positions in both builds.
    assert sys_c.rng.getstate() == sys_o.rng.getstate()
    assert sys_c.broadband._rng.getstate() == sys_o.broadband._rng.getstate()
    assert sys_c.nat_model._rng.getstate() == sys_o.nat_model._rng.getstate()


@settings(max_examples=10, deadline=None)
@given(**device_shapes)
def test_tiered_materialization_reproduces_the_eager_nodes(
    seed, n_peers, mix_name, attacker, cap
):
    (_, _, pop_o), (_, _, pop_c) = _build_both(
        seed, n_peers, mix_name, attacker, cap)
    for node, handle in zip(pop_o.iter_peers(), pop_c.iter_peers()):
        link = handle.link  # forces materialization
        assert link.up_bps == node.link.up_bps
        assert handle.device == node.device
        assert handle.upload_rate_cap() == node.upload_rate_cap()
        assert handle.rng.getstate() == node.rng.getstate()
    assert pop_c.store.materialized_count() == len(pop_c.store)


def _tiered(**overrides):
    base = tiny_scenario()
    return dataclasses.replace(
        base,
        population=dataclasses.replace(base.population, device=default_mix()),
        **overrides,
    )


def test_tiered_trace_is_store_independent():
    with object_store_oracle():
        obj = run_scenario_artifact(_tiered())
    col = run_scenario_artifact(_tiered())
    assert record_digest(obj) == record_digest(col)
    assert event_digest(obj) == event_digest(col)
    # The artifact's device record (census + guid→class) agrees too.
    assert obj.devices == col.devices
    assert obj.devices["census"]
