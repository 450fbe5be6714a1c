"""Tests for the fluid flow network and max-min fair allocation."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.flows import (
    UNCONSTRAINED_RATE, Flow, FlowNetwork, FlowNetworkStats, Resource,
    _max_min_fair,
)
from repro.net.sim import Simulator

PINNED_RATES = Path(__file__).parents[1] / "golden" / "waterfill_rates.json"


def make_net():
    sim = Simulator()
    return sim, FlowNetwork(sim)


@st.composite
def components(draw, max_flows=40):
    """A random settle component: flows sharing a pool of resources.

    Draws the shapes that historically break allocators: shared
    resources, capacity-less resources, per-flow caps at/below/above the
    fair share, and flows crossing no resource at all.
    """
    n_res = draw(st.integers(min_value=1, max_value=10))
    resources = []
    for i in range(n_res):
        capacity = draw(st.one_of(
            st.none(),  # unconstrained resource: never a bottleneck
            st.floats(min_value=0.5, max_value=5000.0,
                      allow_nan=False, allow_infinity=False),
        ))
        resources.append(Resource(f"r{i}", capacity))
    n_flows = draw(st.integers(min_value=1, max_value=max_flows))
    flows = []
    for i in range(n_flows):
        k = draw(st.integers(min_value=0, max_value=min(4, n_res)))
        picked = draw(st.permutations(resources))[:k]
        cap = draw(st.one_of(
            st.none(),  # uncapped flow
            st.floats(min_value=0.1, max_value=2000.0,
                      allow_nan=False, allow_infinity=False),
        ))
        flows.append(Flow(i, tuple(picked), size=1e9, cap=cap,
                          on_complete=None, meta=None, now=0.0))
    return flows


def pinned_component(seed: int) -> list[Flow]:
    """Component ``seed`` of the pinned-rate set, in flow-id order.

    Four shapes by ``seed % 4``: ties (few capacities and caps, so
    resources and caps tie for the bottleneck), many distinct caps, a
    free mix with capacity-less resources and flows crossing nothing, and
    lone flows (the single-flow case of the kernel).
    """
    rng = random.Random(seed)
    shape = seed % 4
    n_res = rng.randint(1, 8)
    resources = []
    for i in range(n_res):
        if rng.random() < 0.2:
            capacity = None
        elif shape == 0:
            capacity = rng.choice((0.7, 1.0, 3.0))
        else:
            capacity = rng.uniform(0.5, 5000.0)
        resources.append(Resource(f"r{i}", capacity))
    n_flows = 1 if shape == 3 else rng.randint(2, 48)
    flows = []
    for i in range(n_flows):
        picked = rng.sample(resources, rng.randint(0, min(4, n_res)))
        if rng.random() < 0.3:
            cap = None
        elif shape == 0:
            cap = rng.choice((0.1, 0.35, 1.0))
        else:
            cap = rng.uniform(0.1, 2000.0)
        flows.append(Flow(i, tuple(picked), size=1e9, cap=cap,
                          on_complete=None, meta=None, now=0.0))
    return flows


def assert_max_min_certificate(flows: list[Flow]) -> None:
    """First-principles max-min fairness, caps and all: the allocation is
    feasible, and no flow could be raised without lowering one that is no
    faster — it sits at its cap, or nothing binds it at all, or it crosses
    a saturated resource on which no flow is faster."""
    rates = _max_min_fair(flows)
    assert set(rates) == set(flows)

    def slack(x):  # float residue of the freeze-round subtractions
        return 1e-9 * x + 1e-9

    load: dict[Resource, float] = {}
    fastest: dict[Resource, float] = {}
    for f in flows:
        for res in f.resources:
            if res.capacity is not None:
                load[res] = load.get(res, 0.0) + rates[f]
                fastest[res] = max(fastest.get(res, 0.0), rates[f])
    for res, total in load.items():
        assert total <= res.capacity + slack(res.capacity)

    for f in flows:
        rate = rates[f]
        assert rate >= 0.0
        if f.cap is not None:
            assert rate <= f.cap
            if rate == f.cap:
                continue
        binding = [res for res in f.resources if res in load]
        if f.cap is None and not binding:
            assert rate == UNCONSTRAINED_RATE
            continue
        assert any(
            load[res] >= res.capacity - slack(res.capacity)
            and fastest[res] <= rate + slack(rate)
            for res in binding
        ), f"flow {f.flow_id} at {rate} could still grow"


class TestResource:
    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            Resource("bad", 0.0)

    def test_unconstrained_resource_allowed(self):
        res = Resource("core", None)
        assert res.capacity is None


class TestSingleFlow:
    def test_flow_gets_full_capacity(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        flow = net.start_flow([res], 1000.0)
        assert flow.rate == pytest.approx(100.0)

    def test_completion_time_is_size_over_rate(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        done = []
        net.start_flow([res], 1000.0, on_complete=lambda f: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(10.0)]

    def test_cap_limits_rate(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        flow = net.start_flow([res], 1000.0, cap=25.0)
        assert flow.rate == pytest.approx(25.0)

    def test_uncapped_unconstrained_flow_finishes(self):
        sim, net = make_net()
        done = []
        net.start_flow([], 1e9, on_complete=lambda f: done.append(1))
        sim.run()
        assert done == [1]

    def test_invalid_size_rejected(self):
        _sim, net = make_net()
        with pytest.raises(ValueError):
            net.start_flow([], 0.0)

    def test_invalid_cap_rejected(self):
        _sim, net = make_net()
        with pytest.raises(ValueError):
            net.start_flow([], 10.0, cap=-1.0)

    def test_transferred_bytes_equal_size_on_completion(self):
        sim, net = make_net()
        res = Resource("link", 7.0)
        flow = net.start_flow([res], 100.0)
        sim.run()
        assert flow.transferred == pytest.approx(100.0)
        assert not flow.active

    def test_remaining_at_reads_progress_since_last_settle(self):
        sim, net = make_net()
        res = Resource("link", 50.0)
        flow = net.start_flow([res], 1000.0)
        sim.schedule_at(7.0, lambda: None)
        sim.run(until=7.0)
        assert flow.remaining == 1000.0  # as of the settle at t=0
        assert flow.remaining_at(7.0) == 1000.0 - 50.0 * 7.0
        assert flow.remaining_at(0.0) == 1000.0
        assert flow.remaining_at(30.0) == 0.0

    def test_average_rate(self):
        sim, net = make_net()
        res = Resource("link", 50.0)
        flow = net.start_flow([res], 500.0)
        sim.run()
        assert flow.average_rate() == pytest.approx(50.0)
        assert flow.end_time - flow.start_time == pytest.approx(10.0)


class TestFairSharing:
    def test_two_flows_split_evenly(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        f1 = net.start_flow([res], 1e6)
        f2 = net.start_flow([res], 1e6)
        assert f1.rate == pytest.approx(50.0)
        assert f2.rate == pytest.approx(50.0)

    def test_capped_flow_leaves_residual_to_others(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        slow = net.start_flow([res], 1e6, cap=10.0)
        fast = net.start_flow([res], 1e6)
        assert slow.rate == pytest.approx(10.0)
        assert fast.rate == pytest.approx(90.0)

    def test_rates_rebalance_when_flow_completes(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        short = net.start_flow([res], 100.0)
        long = net.start_flow([res], 10_000.0)
        assert long.rate == pytest.approx(50.0)
        sim.run(until=3.0)  # short finishes at t=2
        assert not short.active
        assert long.rate == pytest.approx(100.0)

    def test_multi_resource_bottleneck(self):
        sim, net = make_net()
        uplink = Resource("up", 10.0)
        downlink = Resource("down", 100.0)
        flow = net.start_flow([uplink, downlink], 1e6)
        assert flow.rate == pytest.approx(10.0)

    def test_two_uploaders_one_downlink(self):
        sim, net = make_net()
        up_a = Resource("upA", 30.0)
        up_b = Resource("upB", 200.0)
        down = Resource("down", 100.0)
        fa = net.start_flow([up_a, down], 1e6)
        fb = net.start_flow([up_b, down], 1e6)
        # A frozen at its uplink 30; B gets the rest of the downlink.
        assert fa.rate == pytest.approx(30.0)
        assert fb.rate == pytest.approx(70.0)

    def test_total_never_exceeds_capacity(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        flows = [net.start_flow([res], 1e6) for _ in range(7)]
        assert sum(f.rate for f in flows) <= 100.0 + 1e-6

    def test_disjoint_components_do_not_interact(self):
        sim, net = make_net()
        res_a = Resource("a", 100.0)
        res_b = Resource("b", 40.0)
        fa = net.start_flow([res_a], 1e6)
        fb = net.start_flow([res_b], 1e6)
        assert fa.rate == pytest.approx(100.0)
        assert fb.rate == pytest.approx(40.0)


class TestAbortAndRecap:
    def test_abort_keeps_transferred_bytes(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        flow = net.start_flow([res], 1e6)
        sim.schedule(5.0, lambda: net.abort_flow(flow))
        sim.run(until=6.0)
        assert not flow.active
        assert flow.transferred == pytest.approx(500.0)

    def test_abort_frees_capacity_for_others(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        f1 = net.start_flow([res], 1e6)
        f2 = net.start_flow([res], 1e6)
        sim.schedule(1.0, lambda: net.abort_flow(f1))
        sim.run(until=2.0)
        assert f2.rate == pytest.approx(100.0)

    def test_abort_is_idempotent(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        flow = net.start_flow([res], 1e6)
        net.abort_flow(flow)
        net.abort_flow(flow)
        assert net.aborted_count == 1

    def test_aborted_flow_does_not_complete(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        done = []
        flow = net.start_flow([res], 200.0, on_complete=lambda f: done.append(1))
        net.abort_flow(flow)
        sim.run()
        assert done == []

    def test_set_cap_midstream_changes_finish_time(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        done = []
        flow = net.start_flow([res], 1000.0, on_complete=lambda f: done.append(sim.now))
        sim.schedule(5.0, lambda: net.set_cap(flow, 10.0))
        sim.run()
        # 500 bytes in 5s, then 500 bytes at 10B/s = 50s more.
        assert done == [pytest.approx(55.0)]

    def test_clearing_cap_restores_fair_share(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        flow = net.start_flow([res], 1e6, cap=10.0)
        net.set_cap(flow, None)
        assert flow.rate == pytest.approx(100.0)

    def test_completion_counter(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        for _ in range(3):
            net.start_flow([res], 50.0)
        sim.run()
        assert net.completed_count == 3


class TestMaxMinProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        caps=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=6),
        n_flows=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_allocation_feasible_and_work_conserving(self, caps, n_flows, seed):
        """Max-min invariants: feasibility, non-negativity, and no resource
        left under-used while some flow on it could still grow."""
        import random as _random
        rng = _random.Random(seed)
        sim = Simulator()
        resources = [Resource(f"r{i}", c) for i, c in enumerate(caps)]
        flows = []
        for i in range(n_flows):
            chosen = rng.sample(resources, rng.randint(1, len(resources)))
            flow = Flow(i, tuple(chosen), 1e9, None, None, None, 0.0)
            for res in chosen:
                res.flows.add(flow)
            flows.append(flow)
        rates = _max_min_fair(set(flows))

        for f, r in rates.items():
            assert r >= 0.0
        for res in resources:
            load = sum(rates[f] for f in flows if res in f.resources)
            assert load <= res.capacity * (1 + 1e-9) + 1e-9

        # Work conservation: every flow is blocked by some saturated resource.
        for f in flows:
            saturated = False
            for res in f.resources:
                load = sum(rates[g] for g in flows if res in g.resources)
                if load >= res.capacity * (1 - 1e-6):
                    saturated = True
            assert saturated

    @given(components())
    @settings(max_examples=200, deadline=None)
    def test_max_min_certificate(self, flows):
        assert_max_min_certificate(flows)

    @pytest.mark.slow
    @given(components(max_flows=64))
    @settings(max_examples=2000, deadline=None)
    def test_max_min_certificate_deep(self, flows):
        """The certificate on ten times the examples and larger
        components: more cap-pointer and member-list paths per run."""
        assert_max_min_certificate(flows)

    def test_pinned_rates_bit_for_bit(self):
        """Rates and round counts of 200 seeded components, pinned as
        ``float.hex``: a kernel rewrite must not move a single ulp.

        The file was rendered by the scan-every-unfrozen-flow kernel the
        member-list one replaced.  Re-render it only for a deliberate rate
        change, one ``{"rounds": ..., "rates": [...]}`` line per seed in
        ``range(200)``, from ``pinned_component(seed)`` through
        ``_max_min_fair`` with a fresh ``FlowNetworkStats``."""
        pinned = json.loads(PINNED_RATES.read_text())
        assert len(pinned) == 200
        for seed, want in enumerate(pinned):
            flows = pinned_component(seed)
            stats = FlowNetworkStats()
            rates = _max_min_fair(flows, stats)
            assert [rates[f].hex() for f in flows] == want["rates"], seed
            assert stats.waterfill_rounds == want["rounds"], seed

    def test_rates_do_not_depend_on_iteration_order(self):
        """Why ``_waterfill`` sorts by flow id: r0 and r1 tie for the first
        bottleneck, and whichever wins leaves the float residue of three
        subtractions on the *other* one's lone flow.  Set iteration order
        differs between the parent and pool workers; rates must not."""
        _sim, net = make_net()
        r0, r1 = Resource("r0", 0.7), Resource("r1", 0.7)
        both = [Flow(i, (r0, r1), 1e9, None, None, None, 0.0) for i in range(3)]
        on_r0 = Flow(3, (r0,), 1e9, None, None, None, 0.0)
        on_r1 = Flow(4, (r1,), 1e9, None, None, None, 0.0)
        # Lists stand in for sets whose iteration order we control.
        r0_first = net._waterfill([on_r0, on_r1, *both])
        r1_first = net._waterfill([on_r1, on_r0, *both])
        assert r0_first == r1_first
        # The tie is real: unsorted, the two orders disagree in the last ulp.
        assert (_max_min_fair([on_r0, on_r1, *both])
                != _max_min_fair([on_r1, on_r0, *both]))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=20), cap=st.floats(min_value=1.0, max_value=1e6))
    def test_symmetric_flows_get_equal_shares(self, n, cap):
        res = Resource("link", cap)
        flows = []
        for i in range(n):
            flow = Flow(i, (res,), 1e12, None, None, None, 0.0)
            res.flows.add(flow)
            flows.append(flow)
        rates = _max_min_fair(set(flows))
        expected = cap / n
        for f in flows:
            assert math.isclose(rates[f], expected, rel_tol=1e-9)


class _CapCountingFlow(Flow):
    """A flow that counts how often the kernel reads its cap."""

    reads = 0

    @property
    def cap(self):
        _CapCountingFlow.reads += 1
        return self._counted_cap

    @cap.setter
    def cap(self, value):
        self._counted_cap = value


class TestWaterfillWorkBound:
    """Deterministic work bound (counts, not stopwatches): a water-fill
    reads each flow's cap a bounded number of times, however many cap
    rounds it runs (rescanning every unfrozen flow each round read 81 708
    caps here)."""

    def test_cap_reads_linear_in_flows(self):
        n = 200
        shared = Resource("shared", 150.0 * n)
        order = random.Random(5).sample(range(n), n)
        flows = [_CapCountingFlow(i, (shared,), 1e9, float(c + 1), None,
                                  None, 0.0) for i, c in enumerate(order)]
        _CapCountingFlow.reads = 0
        stats = FlowNetworkStats()
        rates = _max_min_fair(flows, stats)
        reads = _CapCountingFlow.reads
        assert stats.waterfill_rounds > n // 2  # one cap round per flow, nearly
        assert reads <= 4 * n
        assert sum(rates.values()) <= shared.capacity


class TestSnapshotAndErrors:
    def test_set_cap_invalid_rejected(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        flow = net.start_flow([res], 1e6)
        with pytest.raises(ValueError):
            net.set_cap(flow, 0.0)

    def test_set_cap_on_finished_flow_is_noop(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        flow = net.start_flow([res], 100.0)
        sim.run()
        net.set_cap(flow, 1.0)  # must not raise

    def test_flow_average_rate_while_active(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        flow = net.start_flow([res], 1e6)
        sim.schedule(5.0, lambda: None)
        sim.run(until=5.0)
        # Settle hasn't happened (no reallocation), so average uses now.
        assert flow.average_rate(now=5.0) >= 0.0

    def test_many_flows_sequential_completions(self):
        sim, net = make_net()
        res = Resource("link", 100.0)
        finished = []
        for i in range(12):
            net.start_flow([res], 100.0 * (i + 1),
                           on_complete=lambda f: finished.append(f.flow_id))
        sim.run()
        assert len(finished) == 12
        assert net.completed_count == 12
        assert not net.active_flows
