"""Flow-level fluid bandwidth model with max-min fair sharing.

Downloads in this reproduction are not simulated packet-by-packet; what the
paper measures (download speed CDFs, peer efficiency, traffic volumes) is
driven entirely by how competing transfers share constrained links.  We model
each transfer as a *flow* that traverses a set of capacity-constrained
*resources* — the uploader's uplink, the downloader's downlink, an edge
server's egress capacity — and allocate rates with the classic progressive
water-filling algorithm, which yields the max-min fair allocation [Bertsekas
& Gallager].  Per-flow rate caps model NetSession's deliberate upload
throttling (paper §3.9).

Between allocation changes every flow progresses linearly, so the engine is
event-driven: rates are only recomputed when a flow starts, finishes, is
aborted, or has its cap changed — and only for the connected component of
flows that actually share resources with the change.

Batched settlement
------------------
Mutations arrive in same-timestamp bursts: the swarm layer opens several
connections inside one completion tick, a session teardown aborts every
connection it holds, and the fault injector degrades whole regions of links
in a single callback.  Recomputing the component's water-filling once per
mutation would be pure waste — no simulated time passes between the
mutations, so only the *final* state of the burst is ever observable.

The engine therefore runs dirty-set batched: every mutation marks the
affected flows dirty and returns immediately; a *settlement pass*
(:meth:`FlowNetwork.flush`) walks the dirty flows' connected components once
and runs one water-filling over their union.  Settlement is triggered

* automatically at the end of every simulator event (a post-event hook, so
  no other event can ever observe stale rates),
* immediately when a mutation happens outside the event loop (direct
  library use keeps its synchronous feel), and
* lazily by the few in-callback readers of live rates
  (:meth:`FlowNetwork.flush` is idempotent and O(1) when clean).

Because settlement happens at the same simulated timestamp as the mutations
it coalesces, the resulting rate trajectories are identical to those of an
engine that settles after every mutation.  That engine is the test-only
subclass in ``tests/net/reference_engine.py``: the reference for the
equivalence test-suite and the ``benchmarks/test_simcore.py`` baseline.

A settlement pass costs what it touches: the component walk and the
water-filling (:func:`_max_min_fair`) are linear in the flow-resource
incidences of the dirty union, plus one scan of the still-live resources
per freeze round, and no per-resource total is kept up to date afterwards.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Optional

from repro.counters import Counters, counter
from repro.net.sim import Simulator

__all__ = ["Resource", "Flow", "FlowNetwork", "FlowNetworkStats"]

#: Rate assigned to a flow constrained by nothing at all (no resources, no
#: cap).  Finite so completion times stay finite; generous enough (10 GB/s)
#: that it never binds in realistic scenarios.
UNCONSTRAINED_RATE = 10e9

#: Completion-heap entries are compacted (stale entries dropped, heap
#: rebuilt) when more than half the heap is stale — but only past this size,
#: so small heaps never pay the rebuild.
_HEAP_COMPACT_MIN = 64

_FLOW_ID = attrgetter("flow_id")


class Resource:
    """A capacity constraint shared by flows (a link direction, a server NIC).

    ``capacity`` is in bytes/second.  A resource with ``capacity=None`` is
    unconstrained and never becomes a bottleneck (useful for modelling core
    links we assume are overprovisioned, as the paper implicitly does).

    ``flows`` is the set of active flows crossing the resource.  The
    network keeps no per-resource rate total: the water-filling derives
    what it needs from the member flows, and the ``flow-feasibility``
    invariant sums their rates against ``capacity``.
    """

    __slots__ = ("name", "capacity", "flows")

    def __init__(self, name: str, capacity: Optional[float]):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"resource {name!r} capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.flows: set["Flow"] = set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity is None else f"{self.capacity:.0f}B/s"
        return f"<Resource {self.name} cap={cap} flows={len(self.flows)}>"


class Flow:
    """A fluid transfer of ``size`` bytes across a set of resources.

    Flows are created through :meth:`FlowNetwork.start_flow`.  ``meta`` is an
    opaque payload for the caller (the swarm layer stores the connection it
    belongs to).  ``on_rate()`` runs whenever a settlement changes ``rate``.
    """

    __slots__ = (
        "flow_id", "resources", "size", "transferred", "rate", "cap",
        "on_complete", "on_rate", "meta", "start_time", "_last_update", "_version",
        "_queued", "active", "end_time",
    )

    def __init__(
        self,
        flow_id: int,
        resources: tuple[Resource, ...],
        size: float,
        cap: Optional[float],
        on_complete: Optional[Callable[["Flow"], None]],
        meta: object,
        now: float,
        on_rate: Optional[Callable[[], None]] = None,
    ):
        self.flow_id = flow_id
        self.resources = resources
        self.size = float(size)
        self.transferred = 0.0
        self.rate = 0.0
        self.cap = cap
        self.on_complete = on_complete
        self.on_rate = on_rate
        self.meta = meta
        self.start_time = now
        self.end_time: Optional[float] = None
        self._last_update = now
        self._version = 0
        self._queued = False  # has a live completion-heap entry
        self.active = True

    @property
    def remaining(self) -> float:
        """Bytes still to transfer."""
        return max(0.0, self.size - self.transferred)

    def remaining_at(self, now: float) -> float:
        """Bytes still to transfer at ``now``.

        :attr:`remaining` is as of the flow's last settle; this advances it
        at the current rate, as a settle at ``now`` would.
        """
        transferred = self.transferred
        dt = now - self._last_update
        if dt > 0:
            transferred = min(self.size, transferred + self.rate * dt)
        return max(0.0, self.size - transferred)

    def average_rate(self, now: Optional[float] = None) -> float:
        """Mean throughput in bytes/s over the flow's lifetime so far."""
        end = self.end_time if self.end_time is not None else now
        if end is None or end <= self.start_time:
            return 0.0
        return self.transferred / (end - self.start_time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow #{self.flow_id} {self.transferred:.0f}/{self.size:.0f}B "
            f"@{self.rate:.0f}B/s {'active' if self.active else 'done'}>"
        )


@dataclass
class FlowNetworkStats(Counters):
    """Counters exposing the allocation engine's work (perf observability).

    All counters are cumulative since network creation.
    """

    #: Mutations received (start/abort/set_cap/set_resource_capacity).
    mutations: int = 0
    #: Settlement passes that found dirty flows to resolve.
    flushes: int = 0
    #: Reallocation calls (one settle + water-filling over a dirty union).
    reallocations: int = 0
    #: Connected components walked across all settlements.
    components: int = 0
    #: Total flows covered by component walks (mean = / components).
    flows_reallocated: int = counter(then=("mean_component_size", 2))
    #: Largest single component seen.
    max_component: int = counter(gauge=True)
    #: Water-filling invocations and total freezing rounds inside them.
    waterfill_calls: int = 0
    waterfill_rounds: int = 0
    #: Completion-heap churn: entries pushed, pushes avoided because the
    #: flow's rate (hence ETA) was unchanged, stale entries popped, and
    #: full compactions performed.
    heap_pushes: int = 0
    heap_skips: int = 0
    heap_stale_pops: int = 0
    heap_compactions: int = 0

    @property
    def mean_component_size(self) -> float:
        """Mean flows per walked component (0.0 before any settlement)."""
        if self.components == 0:
            return 0.0
        return self.flows_reallocated / self.components


class FlowNetwork:
    """Manages all active flows and keeps their rates max-min fair.

    The network owns a completion heap inside the simulator: whenever rates
    change, new completion times are computed and stale heap entries are
    invalidated lazily via per-flow version counters.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._next_id = 0
        self.active_flows: set[Flow] = set()
        # (completion_time, flow_id, version, flow) — lazy invalidation
        self._completions: list[tuple[float, int, int, Flow]] = []
        self._heap_live = 0  # entries whose (flow, version) is still current
        self._completion_event = None
        self.completed_count = 0
        self.aborted_count = 0
        self.stats = FlowNetworkStats()
        # Dirty flows awaiting settlement; a dict preserves mutation order
        # so components are walked in the order the burst touched them.
        self._dirty: dict[Flow, None] = {}
        self._need_schedule = False
        self._batch_depth = 0
        sim.add_post_event_hook(self._post_event_flush)

    # ------------------------------------------------------------------ API

    def start_flow(
        self,
        resources: Iterable[Resource],
        size: float,
        *,
        cap: Optional[float] = None,
        on_complete: Optional[Callable[[Flow], None]] = None,
        on_rate: Optional[Callable[[], None]] = None,
        meta: object = None,
    ) -> Flow:
        """Begin a transfer of ``size`` bytes across ``resources``.

        ``cap`` optionally limits the flow's rate regardless of fair share
        (NetSession's upload throttle).  ``on_complete`` fires, inside the
        simulator, when the last byte is delivered (``on_rate``: see Flow).
        """
        if size <= 0:
            raise ValueError(f"flow size must be positive, got {size}")
        if cap is not None and cap <= 0:
            raise ValueError(f"flow cap must be positive, got {cap}")
        flow = Flow(
            flow_id=self._next_id,
            resources=tuple(resources),
            size=size,
            cap=cap,
            on_complete=on_complete,
            meta=meta,
            now=self.sim.now,
            on_rate=on_rate,
        )
        self._next_id += 1
        self.active_flows.add(flow)
        for res in flow.resources:
            res.flows.add(flow)
        self._dirty[flow] = None
        self._mutated()
        return flow

    def abort_flow(self, flow: Flow) -> None:
        """Stop a flow before completion; already-transferred bytes stand."""
        if not flow.active:
            return
        self._settle(flow)
        self._detach(flow)
        flow.end_time = self.sim.now
        self.aborted_count += 1
        for res in flow.resources:
            if res.capacity is None:
                continue
            for other in res.flows:
                self._dirty.setdefault(other)
        self._need_schedule = True
        self._mutated()

    def set_cap(self, flow: Flow, cap: Optional[float]) -> None:
        """Change a flow's rate cap (used to throttle or pause-ish a flow)."""
        if not flow.active:
            return
        if cap is not None and cap <= 0:
            raise ValueError(f"flow cap must be positive, got {cap}")
        if cap == flow.cap:
            return
        flow.cap = cap
        self._dirty.setdefault(flow)
        self._mutated()

    def set_resource_capacity(self, resource: Resource, capacity: Optional[float]) -> None:
        """Change a shared resource's capacity mid-simulation.

        Used by the fault-injection layer (edge brownouts, link degradation):
        flows currently crossing the resource are settled at their old rates
        and re-allocated under the new capacity.  ``None`` lifts the
        constraint entirely.
        """
        if capacity is not None and capacity <= 0:
            raise ValueError(
                f"resource {resource.name!r} capacity must be positive, got {capacity}"
            )
        if capacity == resource.capacity:
            return
        resource.capacity = capacity
        for flow in list(resource.flows):
            if flow.active:
                self._dirty.setdefault(flow)
        self._mutated()

    def resources_in_use(self) -> set[Resource]:
        """Every resource referenced by at least one active flow.

        Does **not** flush: the invariant auditor calls this at event
        boundaries where the post-event hook has already settled rates, and
        a flush here would perturb the settlement counters it audits.
        """
        resources: set[Resource] = set()
        for flow in self.active_flows:
            resources.update(flow.resources)
        return resources

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Coalesce a block of mutations into one settlement pass.

        Inside the simulator loop this is automatic (the post-event hook
        settles each event's burst); the context manager extends the same
        coalescing to mutation bursts issued *outside* the loop — a fault
        being applied from driver code, a peer re-capping all its upload
        flows.  Nests safely.
        """
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            self._maybe_settle()

    def flush(self) -> None:
        """Settle pending mutations now.  Idempotent; O(1) when clean.

        Rates are always settled before any other simulator event runs; the
        few code paths that read live rates *inside* the same callback that
        mutated the network call this first.
        """
        if not self._dirty:
            if self._need_schedule:
                self._need_schedule = False
                self._schedule_next_completion()
            return
        self.stats.flushes += 1
        dirty, self._dirty = self._dirty, {}
        self._need_schedule = False
        component: set[Flow] = set()
        for flow in dirty:
            if flow.active and flow not in component:
                walked = self._component(flow)
                self.stats.components += 1
                self.stats.flows_reallocated += len(walked)
                if len(walked) > self.stats.max_component:
                    self.stats.max_component = len(walked)
                component |= walked
        self._reallocate(component)

    # ------------------------------------------------------- internal engine

    def _mutated(self) -> None:
        """A mutation happened: settle now or defer to the event boundary."""
        self.stats.mutations += 1
        self._maybe_settle()

    def _maybe_settle(self) -> None:
        if self._batch_depth == 0 and not self.sim.in_event:
            self.flush()

    def _post_event_flush(self) -> None:
        # Registered with the simulator: runs after every event callback, so
        # the next event (and anything after run()) always sees settled rates.
        if self._dirty or self._need_schedule:
            self.flush()

    def _detach(self, flow: Flow) -> None:
        flow.active = False
        flow._version += 1  # invalidate any heap entry
        if flow._queued:
            flow._queued = False
            self._heap_live -= 1
        self.active_flows.discard(flow)
        for res in flow.resources:
            res.flows.discard(flow)

    def _settle(self, flow: Flow) -> None:
        """Advance a flow's transferred bytes up to the current time."""
        now = self.sim.now
        dt = now - flow._last_update
        if dt > 0:
            flow.transferred = min(flow.size, flow.transferred + flow.rate * dt)
        flow._last_update = now

    def _component(self, flow: Flow) -> set[Flow]:
        """All active flows transitively sharing a resource with ``flow``."""
        if not flow.active:
            return set()
        seen = {flow}
        frontier = [flow]
        while frontier:
            for res in frontier.pop().resources:
                if res.capacity is None or len(res.flows) == 1:
                    # Unconstrained resources never bind, so they don't
                    # couple allocations — skipping them keeps components
                    # (and reallocation cost) small.  A lone member is the
                    # flow being expanded, already seen.
                    continue
                new = res.flows - seen
                if new:
                    seen |= new
                    frontier.extend(new)
        return seen

    def _reallocate(self, flows: set[Flow]) -> None:
        """Recompute max-min fair rates for a dirty union of attached flows
        and reschedule."""
        if not flows:
            self._schedule_next_completion()
            return
        self.stats.reallocations += 1
        now = self.sim.now
        for f in flows:  # settle: advance transferred bytes to now
            dt = now - f._last_update
            if dt > 0:
                f.transferred = min(f.size, f.transferred + f.rate * dt)
            f._last_update = now

        for f, rate in self._waterfill(flows).items():
            if rate == f.rate:
                # Flows progress linearly, so an unchanged rate means the
                # existing heap entry's ETA is still exact — skip the version
                # bump and re-push entirely (satellite: no heap bloat).
                self.stats.heap_skips += 1
                continue
            f.rate = rate
            if f.on_rate is not None:
                f.on_rate()
            f._version += 1
            if f._queued:
                f._queued = False
                self._heap_live -= 1
            left = f.size - f.transferred
            if rate > 0 and left > 0:
                eta = now + left / rate
                if eta < math.inf:
                    heapq.heappush(self._completions, (eta, f.flow_id, f._version, f))
                    f._queued = True
                    self._heap_live += 1
                    self.stats.heap_pushes += 1
        self._schedule_next_completion()

    def _waterfill(self, flows: Iterable[Flow]) -> dict[Flow, float]:
        """Max-min fair rates for one settling component.

        The component is solved in canonical flow-id order, so which
        resource wins a bottleneck tie never depends on set iteration
        order — which differs between the parent process and pool workers.
        """
        return _max_min_fair(sorted(flows, key=_FLOW_ID), self.stats)

    def _maybe_compact_heap(self) -> None:
        heap = self._completions
        if len(heap) <= _HEAP_COMPACT_MIN:
            return
        if (len(heap) - self._heap_live) * 2 <= len(heap):
            return
        self._completions = [
            entry for entry in heap
            if entry[3].active and entry[2] == entry[3]._version
        ]
        heapq.heapify(self._completions)
        self.stats.heap_compactions += 1

    def _schedule_next_completion(self) -> None:
        # Drop stale heap entries, then (re)schedule the simulator event for
        # the earliest valid completion.
        self._maybe_compact_heap()
        while self._completions:
            eta, _fid, version, flow = self._completions[0]
            if not flow.active or version != flow._version:
                heapq.heappop(self._completions)
                self.stats.heap_stale_pops += 1
                continue
            break
        if not self._completions:
            if self._completion_event is not None and self._completion_event.pending:
                self._completion_event.cancel()
                self._completion_event = None
            return
        eta = self._completions[0][0]
        delay = max(0.0, eta - self.sim.now)
        if (
            self._completion_event is not None
            and self._completion_event.pending
            and self._completion_event.time == self.sim.now + delay
        ):
            return  # already armed for exactly this instant — keep it
        if self._completion_event is not None and self._completion_event.pending:
            self._completion_event.cancel()
        self._completion_event = self.sim.schedule(delay, self._on_completion_tick)

    def _on_completion_tick(self) -> None:
        # The completion burst defers like any other: the freed capacity,
        # the flows the callbacks below start, and any teardowns they
        # trigger all settle in this event's single settlement pass.
        # Callbacks never observe stale rates — every live-rate reader
        # flushes first.
        for flow in self._retire_finished():
            if flow.on_complete is not None:
                flow.on_complete(flow)

    def _retire_finished(self) -> list[Flow]:
        """Detach every flow due now, dirtying the flows that shared a
        constrained resource with one; callbacks are the caller's to fire."""
        now = self.sim.now
        finished: list[Flow] = []
        while self._completions:
            eta, _fid, version, flow = self._completions[0]
            if not flow.active or version != flow._version:
                heapq.heappop(self._completions)
                self.stats.heap_stale_pops += 1
                continue
            if eta > now + 1e-9:
                break
            heapq.heappop(self._completions)
            flow._queued = False
            self._heap_live -= 1
            finished.append(flow)

        affected: set[Flow] = set()
        for flow in finished:
            self._settle(flow)
            flow.transferred = flow.size  # squash float residue
            for res in flow.resources:
                if res.capacity is None:
                    continue
                for other in res.flows:
                    if other is not flow:
                        affected.add(other)
            self._detach(flow)
            flow.end_time = now
            self.completed_count += 1

        for f in affected:
            if f.active:
                self._dirty.setdefault(f)
        self._need_schedule = True
        return finished


def _max_min_fair(
    flows: Iterable[Flow], stats: Optional[FlowNetworkStats] = None
) -> dict[Flow, float]:
    """Progressive water-filling with per-flow caps.

    Repeatedly find the binding constraint — either the most-loaded resource's
    equal share or the smallest unfrozen flow cap — and freeze the affected
    flows at that rate.  Each iteration freezes at least one flow, so the
    loop terminates in at most ``len(flows)`` rounds.

    One pass costs O(incidences) plus one scan of the live resources per
    round: member lists and counts are built once, the smallest unfrozen
    cap is a pointer into the caps sorted once, a bottleneck round freezes
    the bottleneck's members, and a resource leaves ``live`` when its last
    unfrozen member freezes.  ``live`` keeps first-crossing order, so a
    tie for the bottleneck goes to the resource the input order reaches
    first.  Within a round every subtraction on a resource subtracts the
    same value, so no float depends on the order flows freeze in.
    """
    if stats is not None:
        stats.waterfill_calls += 1
    flows = list(flows)
    if len(flows) == 1:
        return _lone_flow_rate(flows[0], stats)
    # Constrained resource -> [capacity left, unfrozen incidences, members].
    # Only flows in this component count: components are closed under
    # shared constrained resources.
    live: dict[Resource, list] = {}
    capped: list[tuple[float, Flow]] = []
    for f in flows:
        cap = f.cap
        if cap is not None:
            capped.append((cap, f))
        for res in f.resources:
            if res.capacity is None:
                continue
            entry = live.get(res)
            if entry is None:
                live[res] = [res.capacity, 1, [f]]
            else:
                entry[1] += 1
                entry[2].append(f)
    capped.sort(key=itemgetter(0))  # stable: equal caps keep input order
    n_capped = len(capped)
    next_cap = 0  # every flow in capped[:next_cap] is frozen
    rates: dict[Flow, float] = {}
    unfrozen = len(flows)
    rounds = 0

    while unfrozen:
        rounds += 1
        # Bottleneck share among constrained resources with unfrozen flows.
        share = math.inf
        bottleneck: Optional[list] = None
        for entry in live.values():
            s = entry[0] / entry[1]
            if s < share:
                share = s
                bottleneck = entry

        # Smallest cap among unfrozen flows.
        while next_cap < n_capped and capped[next_cap][1] in rates:
            next_cap += 1
        min_cap = capped[next_cap][0] if next_cap < n_capped else math.inf

        if min_cap < share:
            # Freeze all flows whose cap equals the minimum at their cap.
            level = min_cap
            frozen = []
            while next_cap < n_capped and capped[next_cap][0] <= level:
                f = capped[next_cap][1]
                next_cap += 1
                if f not in rates:
                    rates[f] = level
                    frozen.append(f)
        elif bottleneck is not None:
            level = share
            # Guard against tiny negative residue from float subtraction.
            rate = share if share > 0.0 else 0.0
            frozen = []
            for f in bottleneck[2]:
                if f not in rates:  # members frozen earlier stay listed
                    rates[f] = rate
                    frozen.append(f)
        else:
            # No constrained resource and no cap: unconstrained flows.
            for f in flows:
                if f not in rates:
                    rates[f] = f.cap if f.cap is not None else UNCONSTRAINED_RATE
            break
        unfrozen -= len(frozen)
        for f in frozen:
            for res in f.resources:
                entry = live.get(res)
                if entry is None:
                    continue
                if entry[1] == 1:
                    del live[res]  # last unfrozen member: never binds again
                else:
                    entry[0] -= level
                    entry[1] -= 1
    if stats is not None:
        stats.waterfill_rounds += rounds
    return rates


def _lone_flow_rate(
    flow: Flow, stats: Optional[FlowNetworkStats]
) -> dict[Flow, float]:
    """:func:`_max_min_fair` of a one-flow component, in closed form: its
    single round freezes the flow at its cap or at its tightest share."""
    if stats is not None:
        stats.waterfill_rounds += 1
    resources = flow.resources
    share = math.inf
    for res in resources:
        capacity = res.capacity
        if capacity is not None:
            capacity /= resources.count(res)  # a resource crossed twice
            if capacity < share:
                share = capacity
    cap = flow.cap
    if cap is not None and cap < share:
        return {flow: cap}
    if share < math.inf:
        return {flow: share}
    return {flow: cap if cap is not None else UNCONSTRAINED_RATE}
