"""Property tests: the columnar store is the object graph, byte for byte.

Hypothesis drives population shapes (size, broken and attacker
fractions, seeds) through both store implementations and checks
field-for-field equality — first through dormant column reads (which must
not materialize anyone), then through full materialization (which must
reproduce the eager nodes' deep state: link capacities, RNG stream
positions, channel streams).
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tests.scale.conftest import build_store_world, session_columns  # noqa: E402

pytestmark = pytest.mark.scale

#: The dormant-readable attribute surface; every name must round-trip the
#: exact value an eagerly built PeerNode reports.
DORMANT_ATTRS = (
    "guid", "country_code", "geo_region", "asn", "network_region",
    "uploads_enabled", "installed_from_cp", "software_version",
    "piece_corruption_prob", "accounting_attacker", "adversary_profile",
    "online", "ip", "cn", "link_busy", "active_upload_count", "sessions",
    "boot_count", "setting_changes", "nat_rebinds", "uploads_done",
    "lan_id",
)

population_shapes = dict(
    seed=st.integers(0, 2**20),
    n_peers=st.integers(1, 50),
    attacker=st.sampled_from([0.0, 0.1]),
    broken=st.sampled_from([0.0, 0.08]),
)


def _build_both(seed, n_peers, attacker, broken):
    overrides = dict(
        n_peers=n_peers,
        attacker_fraction=attacker,
        broken_fraction=broken,
    )
    return (
        build_store_world("object", seed, **overrides),
        build_store_world("columnar", seed, **overrides),
    )


@settings(max_examples=20, deadline=None)
@given(**population_shapes)
def test_build_is_field_for_field_equal_without_materializing(
    seed, n_peers, attacker, broken
):
    (sys_o, _, pop_o), (sys_c, _, pop_c) = _build_both(
        seed, n_peers, attacker, broken)
    store = pop_c.store
    assert store is not None and len(store) == pop_o.peer_count()

    for node, handle in zip(pop_o.iter_peers(), pop_c.iter_peers()):
        for attr in DORMANT_ATTRS:
            assert getattr(handle, attr) == getattr(node, attr), attr
        # Shared model objects intern by value-identity across systems.
        assert handle.country.code == node.country.code
        assert handle.city.name == node.city.name
        assert handle.asys.asn == node.asys.asn
        assert handle.nat_profile == node.nat_profile
    # The whole sweep above was served from columns.
    assert store.materialized_count() == 0

    # Population-level structures match.
    assert session_columns(pop_c) == session_columns(pop_o)

    # Every shared RNG stream ends the build at the identical position —
    # the property that makes everything downstream byte-identical.
    assert sys_c.rng.getstate() == sys_o.rng.getstate()
    assert sys_c.broadband._rng.getstate() == sys_o.broadband._rng.getstate()
    assert sys_c.nat_model._rng.getstate() == sys_o.nat_model._rng.getstate()
    # And the scheduled session workload is identical.
    assert sys_c.stats().as_dict() == sys_o.stats().as_dict()


@settings(max_examples=10, deadline=None)
@given(**population_shapes)
def test_materialization_reproduces_the_eager_nodes(
    seed, n_peers, attacker, broken
):
    (_, _, pop_o), (_, _, pop_c) = _build_both(
        seed, n_peers, attacker, broken)
    store = pop_c.store
    for node, handle in zip(pop_o.iter_peers(), pop_c.iter_peers()):
        link = handle.link  # forces materialization
        assert link.tier == node.link.tier
        assert link.down_bps == node.link.down_bps
        assert link.up_bps == node.link.up_bps
        assert link.downlink.name == node.link.downlink.name
        assert link.uplink.name == node.link.uplink.name
        assert handle.rng.getstate() == node.rng.getstate()
        assert handle.channel.rng.getstate() == node.channel.rng.getstate()
        assert handle.guid == node.guid
    assert store.materialized_count() == len(store)
    assert store.peak_materialized == len(store)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n_peers=st.integers(2, 40),
    sample_seed=st.integers(0, 99),
)
def test_sample_peers_selects_identical_victims(seed, n_peers, sample_seed):
    # rng.sample depends only on population size and order, so seeded
    # fault/adversary victim selection is store-independent — and the
    # columnar side must serve it without materializing anyone.
    (_, _, pop_o), (_, _, pop_c) = _build_both(seed, n_peers, 0.0, 0.0)
    k = max(1, n_peers // 3)
    chosen_o = pop_o.sample_peers(random.Random(sample_seed), k)
    chosen_c = pop_c.sample_peers(random.Random(sample_seed), k)
    assert [p.guid for p in chosen_o] == [p.guid for p in chosen_c]
    assert pop_c.store.materialized_count() == 0

