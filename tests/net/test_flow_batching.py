"""Batched settlement vs the reference per-mutation engine.

The batched engine (``FlowNetwork``, the only one ``src/`` ships) defers
settlement of same-timestamp mutation bursts to one pass per simulator
event; the reference engine (``tests/net/reference_engine.py``) settles
after every mutation.  Within a
timestamp no simulated time passes, so the two must produce *identical*
trajectories — these tests assert that, exactly, over randomized
workloads, and pin the golden-seed experiment output.
"""

from __future__ import annotations

import random

import pytest

from repro.net.flows import FlowNetwork, Resource
from repro.net.sim import Simulator

from tests.net.reference_engine import PerMutationFlowNetwork

MBPS = 1e6 / 8.0


# ------------------------------------------------------- randomized parity


def _build_schedule(seed: int, n_peers: int = 24, n_events: int = 50):
    """A deterministic mutation schedule, independent of either engine.

    The schedule is pure data — (time, ops) with flows referenced by the
    order they were started — so applying it cannot entangle the RNG
    stream with engine behaviour.
    """
    rng = random.Random(seed)
    links = [
        (rng.uniform(4.0, 40.0) * MBPS, rng.uniform(0.5, 4.0) * MBPS)
        for _ in range(n_peers)
    ]
    events = []
    t = 0.0
    started = 0
    for _ in range(n_events):
        t += rng.uniform(0.5, 25.0)
        ops = []
        for _ in range(rng.randrange(1, 8)):
            draw = rng.random()
            if draw < 0.55 or started == 0:
                down = rng.randrange(n_peers)
                up = rng.randrange(n_peers)
                if up == down:
                    up = (up + 1) % n_peers
                ops.append(("start", down, up, rng.uniform(1e6, 6e7)))
                started += 1
            elif draw < 0.75:
                ops.append(("abort", rng.randrange(started)))
            elif draw < 0.9:
                ops.append(("cap", rng.randrange(started),
                            rng.uniform(0.2, 8.0) * MBPS))
            else:
                down = rng.randrange(n_peers)
                ops.append(("degrade", down,
                            rng.uniform(0.2, 1.0) * links[down][0]))
        events.append((t, ops))
    return links, events


def _run_engine(links, events, engine=FlowNetwork):
    sim = Simulator()
    net = engine(sim)
    downs = [Resource(f"p{i}/down", d) for i, (d, _) in enumerate(links)]
    ups = [Resource(f"p{i}/up", u) for i, (_, u) in enumerate(links)]
    flows: list = []

    def apply(ops) -> None:
        for op in ops:
            if op[0] == "start":
                _, down, up, size = op
                flows.append(net.start_flow((downs[down], ups[up]), size))
            elif op[0] == "abort":
                net.abort_flow(flows[op[1]])
            elif op[0] == "cap":
                net.set_cap(flows[op[1]], op[2])
            else:
                net.set_resource_capacity(downs[op[1]], op[2])

    for t, ops in events:
        sim.schedule_at(t, lambda ops=ops: apply(ops))
    sim.run()
    return net, [(f.start_time, f.end_time, f.transferred, f.active)
                 for f in flows]


@pytest.mark.parametrize("seed", range(6))
def test_randomized_schedules_identical(seed):
    """Same schedule, both engines: identical per-flow trajectories.

    Floats are compared at rel=1e-9: settling a burst as one union
    water-filling can reassociate the same sums the reference computes
    component-by-component, which moves results by a couple of ulp.
    The byte-identical guarantee on *rendered* experiment output is
    pinned separately in ``tests/test_golden_parity.py``.
    """
    links, events = _build_schedule(seed)
    net_b, flows_b = _run_engine(links, events)
    net_r, flows_r = _run_engine(links, events, PerMutationFlowNetwork)

    assert len(flows_b) == len(flows_r)
    for got, want in zip(flows_b, flows_r):
        b_start, b_end, b_transferred, b_active = got
        r_start, r_end, r_transferred, r_active = want
        assert b_active == r_active
        assert b_start == r_start
        if r_end is None:
            assert b_end is None
        else:
            assert b_end == pytest.approx(r_end, rel=1e-9)
        assert b_transferred == pytest.approx(r_transferred, rel=1e-9)
    assert net_b.completed_count == net_r.completed_count
    assert net_b.aborted_count == net_r.aborted_count
    # Batching must not *increase* settlement work.
    assert net_b.stats.waterfill_calls <= net_r.stats.waterfill_calls


def test_burst_settles_once_per_event():
    """One event's worth of mutations costs one settlement, not N."""
    links, _ = _build_schedule(0, n_peers=8)
    sim = Simulator()
    net = FlowNetwork(sim)
    shared = Resource("shared", 100.0)

    def burst():
        for _ in range(10):
            net.start_flow([shared], 1e9)

    sim.schedule_at(1.0, burst)
    sim.run(until=2.0)
    assert net.stats.mutations == 10
    assert net.stats.reallocations == 1


def test_reference_settles_per_mutation():
    sim = Simulator()
    net = PerMutationFlowNetwork(sim)
    shared = Resource("shared", 100.0)

    def burst():
        for _ in range(10):
            net.start_flow([shared], 1e9)

    sim.schedule_at(1.0, burst)
    sim.run(until=2.0)
    assert net.stats.reallocations == 10


def test_reference_settles_before_completion_callbacks():
    """The second half of the per-mutation policy: freed capacity is
    re-shared before a finished flow's callback runs (the batched engine
    leaves it dirty until the event ends)."""
    seen = {}
    for engine in (FlowNetwork, PerMutationFlowNetwork):
        sim = Simulator()
        net = engine(sim)
        shared = Resource("shared", 100.0)
        survivor = net.start_flow([shared], 1e6)
        net.start_flow(
            [shared], 50.0,
            on_complete=lambda f, net=net, engine=engine: seen.__setitem__(
                engine, (survivor.rate, bool(net._dirty))))
        sim.run(until=2.0)
        assert survivor.rate == 100.0
    assert seen[FlowNetwork] == (50.0, True)
    assert seen[PerMutationFlowNetwork] == (100.0, False)


# ------------------------------------------------------------ batch() / flush


def test_batch_context_defers_settlement():
    sim = Simulator()
    net = FlowNetwork(sim)
    shared = Resource("shared", 100.0)
    with net.batch():
        flows = [net.start_flow([shared], 1e6) for _ in range(5)]
        # Inside the batch nothing has settled yet.
        assert net.stats.reallocations == 0
        assert all(f.rate == 0.0 for f in flows)
    assert net.stats.reallocations == 1
    assert all(f.rate == pytest.approx(20.0) for f in flows)


def test_outside_event_settles_immediately():
    sim = Simulator()
    net = FlowNetwork(sim)
    shared = Resource("shared", 100.0)
    flow = net.start_flow([shared], 1e6)
    assert flow.rate == pytest.approx(100.0)
    assert net.stats.reallocations == 1


def test_flush_on_read_inside_event():
    """An in-event reader can force settlement with an explicit flush()."""
    sim = Simulator()
    net = FlowNetwork(sim)
    shared = Resource("shared", 100.0)
    seen = []

    def burst():
        f = net.start_flow([shared], 1e9)
        net.flush()
        seen.append(f.rate)

    sim.schedule_at(1.0, burst)
    sim.run(until=2.0)
    assert seen == [pytest.approx(100.0)]


def test_nested_batches_settle_at_outermost_exit():
    sim = Simulator()
    net = FlowNetwork(sim)
    shared = Resource("shared", 100.0)
    with net.batch():
        net.start_flow([shared], 1e6)
        with net.batch():
            net.start_flow([shared], 1e6)
        assert net.stats.reallocations == 0
    assert net.stats.reallocations == 1


# ------------------------------------------------------------- incrementals


def test_heap_skips_unchanged_rates():
    """Mutating one capped flow must not re-push the whole component."""
    sim = Simulator()
    net = FlowNetwork(sim)
    shared = Resource("shared", 1000.0)
    for _ in range(20):
        net.start_flow([shared], 1e9, cap=10.0)
    pushes_before = net.stats.heap_pushes
    # A new capped flow below fair share leaves the others' rates alone.
    net.start_flow([shared], 1e9, cap=10.0)
    assert net.stats.heap_pushes == pushes_before + 1
    assert net.stats.heap_skips >= 20


def test_heap_compaction_bounds_stale_entries():
    sim = Simulator()
    net = FlowNetwork(sim)
    shared = Resource("shared", 1000.0)
    flows = [net.start_flow([shared], 1e12) for _ in range(80)]
    # Repeated cap churn re-rates every flow, staling old heap entries.
    for round_ in range(20):
        for f in flows:
            net.set_cap(f, 1.0 + (round_ % 7))
    assert net.stats.heap_compactions > 0
    # The heap stays compact relative to total pushes.
    assert len(net._completions) < net.stats.heap_pushes


def test_completion_burst_settles_in_one_pass():
    """Flows finishing at the same instant settle (and fire) together."""
    sim = Simulator()
    net = FlowNetwork(sim)
    done = []
    for i in range(4):
        res = Resource(f"r{i}", 100.0)
        net.start_flow([res], 1000.0, on_complete=lambda f: done.append(sim.now))
    settles_before = net.stats.reallocations
    sim.run()
    assert done == [pytest.approx(10.0)] * 4
    assert net.completed_count == 4
    # All four same-instant completions resolved in one settlement pass.
    assert net.stats.reallocations <= settles_before + 2
