"""Tests for the declarative fault model: validation, RNG, apply/revert."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.core import ContentObject, ContentProvider, NetSessionSystem
from repro.core.peer import CacheEntry
from repro.faults import (
    CNOutage, ControlPlaneBlackout, DNWipe, EdgeBrownout, FlakyUploader,
    InjectionContext, LinkDegradation, NATRebind, PeerChurnStorm,
)
from repro.faults import spec as spec_module
from repro.faults.spec import FaultSpec

HOUR = 3600.0

#: Every spec class that declares a ``fraction`` scope.
FRACTION_SPECS = [
    cls for cls in (getattr(spec_module, name) for name in spec_module.__all__)
    if isinstance(cls, type) and issubclass(cls, FaultSpec)
    and "fraction" in {f.name for f in dataclasses.fields(cls)}
]


def build_system(seed=11, n_peers=10):
    system = NetSessionSystem(seed=seed)
    provider = ContentProvider(cp_code=1, name="P")
    obj = ContentObject("f.bin", 100 * 1024 * 1024, provider, p2p_enabled=True)
    system.publish(obj)
    country = system.world.by_code["DE"]
    for _ in range(n_peers):
        p = system.create_peer(country=country, uploads_enabled=True)
        p.cache[obj.cid] = CacheEntry(obj.cid, 0.0)
        p.boot()
    return system, obj


def ctx_for(system, spec, seed=0):
    return InjectionContext(system=system, rng=spec.make_rng(seed))


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            CNOutage("", start=0.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            CNOutage("x", start=-1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            CNOutage("x", start=0.0, duration=-5.0)

    def test_churn_storm_needs_duration(self):
        with pytest.raises(ValueError):
            PeerChurnStorm("storm", start=0.0, duration=0.0)

    def test_churn_storm_invalid_downtime_rejected(self):
        with pytest.raises(ValueError):
            PeerChurnStorm("storm", start=0.0, duration=60.0,
                           downtime=(300.0, 30.0))

    def test_flaky_corruption_prob_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FlakyUploader("flaky", start=0.0, corruption_prob=1.5)

    def test_ten_specs_declare_a_fraction(self):
        assert len(FRACTION_SPECS) == 10

    @pytest.mark.parametrize("cls", FRACTION_SPECS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("fraction", [math.nan, math.inf, -0.5, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, cls, fraction):
        # Was accepted: NaN crashed the run at apply time, -0.5 injected
        # nothing and 1.5 clamped to every peer.
        duration = 0.0 if cls is DNWipe else 60.0
        cls("x", start=600.0, duration=duration, fraction=0.5)
        with pytest.raises(ValueError, match="fraction must be in"):
            cls("x", start=600.0, duration=duration, fraction=fraction)

    def test_dn_wipe_rejects_a_duration(self):
        assert DNWipe("wipe", start=0.0).instantaneous
        assert not CNOutage("out", start=0.0, duration=50.0).instantaneous
        with pytest.raises(ValueError):
            DNWipe("wipe", start=0.0, duration=60.0)


class TestRNG:
    def test_rng_is_stable_per_seed_and_name(self):
        spec = CNOutage("a", start=0.0)
        assert spec.make_rng(7).random() == spec.make_rng(7).random()

    def test_rng_differs_across_names(self):
        a = CNOutage("a", start=0.0).make_rng(7)
        b = CNOutage("b", start=0.0).make_rng(7)
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_rng_differs_across_seeds(self):
        spec = CNOutage("a", start=0.0)
        assert spec.make_rng(1).random() != spec.make_rng(2).random()

    def test_select_is_deterministic(self):
        system, _ = build_system()
        spec = LinkDegradation("deg", start=0.0, fraction=0.5)
        picked1 = ctx_for(system, spec).select(system.iter_peer_nodes(), 0.5)
        picked2 = ctx_for(system, spec).select(system.iter_peer_nodes(), 0.5)
        assert picked1 == picked2
        assert len(picked1) == 5

    def test_select_at_least_one(self):
        system, _ = build_system()
        ctx = ctx_for(system, LinkDegradation("deg", start=0.0))
        assert len(ctx.select(system.iter_peer_nodes(), 0.001)) == 1
        assert ctx.select(system.iter_peer_nodes(), 0.0) == []
        assert ctx.select([], 0.5) == []


class TestRevertSymmetry:
    """apply() then revert() restores the pre-fault state exactly."""

    def test_cn_outage(self):
        system, _ = build_system()
        spec = CNOutage("out", start=0.0, duration=60.0, fraction=0.5)
        ctx = ctx_for(system, spec)
        alive_before = [cn.alive for cn in system.control.all_cns]
        token = spec.apply(ctx)
        assert any(not cn.alive for cn in system.control.all_cns)
        spec.revert(ctx, token)
        assert [cn.alive for cn in system.control.all_cns] == alive_before

    def test_control_plane_blackout(self):
        system, _ = build_system()
        spec = ControlPlaneBlackout("blackout", start=0.0, duration=60.0)
        ctx = ctx_for(system, spec)
        token = spec.apply(ctx)
        assert not any(cn.alive for cn in system.control.all_cns)
        assert not any(dn.alive for dn in system.control.all_dns)
        spec.revert(ctx, token)
        assert all(cn.alive for cn in system.control.all_cns)
        assert all(dn.alive for dn in system.control.all_dns)
        # Stranded peers reconnect once the rate-limited schedule drains.
        system.run(until=system.sim.now + 60.0)
        assert system.control.connected_peer_count() == len(system.iter_peer_nodes())

    def test_edge_brownout(self):
        system, _ = build_system()
        spec = EdgeBrownout("brown", start=0.0, duration=60.0,
                            capacity_factor=0.1)
        ctx = ctx_for(system, spec)
        token = spec.apply(ctx)
        assert all(s.browned_out for s in token)
        assert token  # the selector picked at least one server
        spec.revert(ctx, token)
        assert not any(s.browned_out for s in system.edge.servers_in(None))

    def test_link_degradation(self):
        system, _ = build_system()
        caps_before = [(p.link.down_bps, p.link.up_bps) for p in system.iter_peer_nodes()]
        spec = LinkDegradation("deg", start=0.0, duration=60.0, fraction=0.5)
        ctx = ctx_for(system, spec)
        token = spec.apply(ctx)
        assert all(p.link.degraded for p in token)
        spec.revert(ctx, token)
        caps_after = [(p.link.down_bps, p.link.up_bps) for p in system.iter_peer_nodes()]
        assert caps_after == caps_before

    def test_nat_rebind_durational_restores_profiles(self):
        system, _ = build_system()
        profiles_before = [p.nat_profile for p in system.iter_peer_nodes()]
        spec = NATRebind("rebind", start=0.0, duration=60.0, fraction=1.0)
        ctx = ctx_for(system, spec)
        token = spec.apply(ctx)
        assert all(p.nat_rebinds == 1 for p in system.iter_peer_nodes())
        spec.revert(ctx, token)
        assert [p.nat_profile for p in system.iter_peer_nodes()] == profiles_before

    def test_nat_rebind_instantaneous_is_permanent(self):
        system, _ = build_system()
        spec = NATRebind("rebind", start=0.0, duration=0.0, fraction=1.0)
        ctx = ctx_for(system, spec)
        token = spec.apply(ctx)
        rebound = [p.nat_profile for p in system.iter_peer_nodes()]
        spec.revert(ctx, token)
        assert [p.nat_profile for p in system.iter_peer_nodes()] == rebound

    def test_flaky_uploader(self):
        system, _ = build_system()
        spec = FlakyUploader("flaky", start=0.0, duration=60.0,
                             fraction=0.5, corruption_prob=0.25)
        ctx = ctx_for(system, spec)
        token = spec.apply(ctx)
        assert all(p.piece_corruption_prob == 0.25 for p, _ in token)
        spec.revert(ctx, token)
        assert all(p.piece_corruption_prob == old for p, old in token)

    def test_churn_storm_peers_return(self):
        system, _ = build_system()
        spec = PeerChurnStorm("storm", start=0.0, duration=120.0,
                              fraction=0.5, downtime=(10.0, 30.0))
        ctx = ctx_for(system, spec)
        spec.apply(ctx)
        system.run(until=60.0)
        assert any(not p.online for p in system.iter_peer_nodes())
        system.run(until=300.0)
        assert all(p.online for p in system.iter_peer_nodes())


class TestBaseClass:
    def test_apply_is_abstract(self):
        with pytest.raises(NotImplementedError):
            FaultSpec("x", start=0.0).apply(None)

    def test_describe_mentions_kind_and_timing(self):
        text = CNOutage("x", start=30.0, duration=60.0).describe()
        assert "CNOutage" in text and "30" in text and "60" in text
        assert "instant" in DNWipe("y", start=0.0).describe()
