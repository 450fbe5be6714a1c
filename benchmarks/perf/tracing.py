"""Outside-in instrumentation: phase stamps and layer spans.

Nothing under ``src/`` is edited.  Every number is taken by rebinding a
public name where its *caller* looks it up — a module attribute such as
``repro.workload.scenario.build_population``, or a method on its class —
exactly as :func:`unittest.mock.patch.object` does, inside an
:class:`~contextlib.ExitStack` so the real names are back when the block
exits.

Two instruments:

* :func:`phase_stamps` — four clock reads per scenario (entry/exit of
  ``run_scenario`` and of ``NetSessionSystem.run``).  The only hooks live
  in *untraced* repetitions; they yield ``setup_s`` and ``sim_s``.  In a
  forked pool worker the stamps go to a spool file the parent drains.
* :func:`layer_spans` — the traced repetition: spans around the public
  builders ``run_scenario`` calls, around every simulator callback
  (billed to the module that defines it), and around the boundary methods
  of the control plane, the flow network, the columnar store and
  accounting.

Known limit: a callback's synchronous callees that are not wrapped are
billed to the callback's owner (a ``workload`` lambda that evicts a cache
entry bills ``core.peer`` work to ``workload.callbacks_s``).
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Iterator
from unittest import mock

from benchmarks.perf.spans import SpanRecorder

__all__ = ["StampSpool", "TraceProbe", "phase_stamps", "layer_spans",
           "callback_owner", "require_fork"]


def require_fork(width: int) -> None:
    """Refuse to measure a pooled run whose workers would not inherit the
    stamps: rebinding only reaches pool workers that are forked."""
    import multiprocessing

    method = multiprocessing.get_start_method()
    if width > 1 and method != "fork":
        raise RuntimeError(
            f"pool start method is {method!r}: phase stamps only reach forked "
            "workers, so setup_s/sim_s would read zero; refusing to measure")


class StampSpool:
    """Collects per-scenario stamp records from this process and its forks.

    The owning process appends to a list; a forked worker (same object,
    different pid) appends one JSON line to ``path`` with ``O_APPEND`` —
    lines are far below ``PIPE_BUF``, so concurrent workers never tear.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._owner = os.getpid()
        self._local: list[dict] = []

    def put(self, record: dict) -> None:
        if os.getpid() == self._owner:
            self._local.append(record)
            return
        line = (json.dumps(record) + "\n").encode()
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def drain(self) -> list[dict]:
        """Every record since the last drain (local first, then workers')."""
        records, self._local = self._local, []
        if self.path.exists():
            with open(self.path) as spooled:
                records.extend(json.loads(line) for line in spooled)
            self.path.unlink()
        return records


@contextmanager
def phase_stamps(spool: StampSpool) -> Iterator[None]:
    """Stamp ``run_scenario`` and ``NetSessionSystem.run`` for the block.

    Each finished scenario puts ``{"setup_s", "sim_s"}`` on ``spool``.
    ``parallel_map`` as the sharder sees it is stamped too (``{"fanout_s"}``),
    so the pooled run reports its own fan-out time.
    """
    import repro.runner.artifact as artifact_mod
    import repro.runner.sharding as sharding_mod
    from repro.core.system import NetSessionSystem

    real_run_scenario = artifact_mod.run_scenario
    real_system_run = NetSessionSystem.run
    real_parallel_map = sharding_mod.parallel_map
    clock = time.perf_counter
    sim = [0.0, 0.0]  # entered, left

    def stamped_system_run(self, until=None):
        sim[0] = clock()
        try:
            return real_system_run(self, until=until)
        finally:
            sim[1] = clock()

    @functools.wraps(real_run_scenario)
    def stamped_run_scenario(*args, **kwargs):
        entered = clock()
        result = real_run_scenario(*args, **kwargs)
        spool.put({"setup_s": sim[0] - entered, "sim_s": sim[1] - sim[0]})
        return result

    @functools.wraps(real_parallel_map)
    def stamped_parallel_map(*args, **kwargs):
        entered = clock()
        try:
            return real_parallel_map(*args, **kwargs)
        finally:
            spool.put({"fanout_s": clock() - entered})

    with ExitStack() as stack:
        for owner, name, new in (
            (artifact_mod, "run_scenario", stamped_run_scenario),
            (sharding_mod, "run_scenario", stamped_run_scenario),
            (sharding_mod, "parallel_map", stamped_parallel_map),
            (NetSessionSystem, "run", stamped_system_run),
        ):
            stack.enter_context(mock.patch.object(owner, name, new))
        yield


def _underlying(callback: Callable):
    """The plain function behind a bound method or a partial."""
    fn = getattr(callback, "func", callback)
    return getattr(fn, "__func__", fn)


def callback_owner(callback: Callable) -> str:
    """The ``repro`` module that defines ``callback``, without the prefix.

    Bound methods resolve through ``__func__``, partials through ``func``;
    a lambda or closure belongs to the module whose source contains it.
    """
    module = getattr(_underlying(callback), "__module__", None) or "unknown"
    return module.removeprefix("repro.")


def _build_targets():
    """``(owner, attribute, span name)`` for every build-phase boundary."""
    import repro.core.control.connection_node as cn_mod
    import repro.runner as runner_pkg
    import repro.runner.artifact as artifact_mod
    import repro.runner.sharding as sharding_mod
    import repro.vod.engine as vod_engine
    import repro.workload.scenario as scenario_mod
    from repro.core.accounting import AccountingService
    from repro.core.system import NetSessionSystem
    from repro.net.flows import FlowNetwork
    from repro.workload.behavior import UserBehavior
    from repro.workload.cloning import CloningModel
    from repro.workload.columnar import ColumnarPopulationStore
    from repro.workload.demand import DemandGenerator
    from repro.workload.mobility import MobilityModel

    node = cn_mod.ConnectionNode
    return [
        # The root span: the name the harness itself calls.
        (runner_pkg, "run_scenario_artifact", "runner.run"),
        (artifact_mod, "run_scenario", "workload.scenario.run"),
        (sharding_mod, "run_scenario", "workload.scenario.run"),
        (scenario_mod, "build_core_world", "net.geo.world_build"),
        (sharding_mod, "build_core_world", "net.geo.world_build"),
        (scenario_mod, "build_topology", "net.topology.build"),
        (sharding_mod, "build_topology", "net.topology.build"),
        (scenario_mod, "NetSessionSystem", "core.system.build"),
        (scenario_mod, "build_catalog", "workload.catalog.build"),
        (scenario_mod, "seed_warm_caches", "workload.scenario.warm_caches"),
        # Constructors bill to their layer's set-up span: DemandGenerator
        # buckets the whole population by region when it is built.
        (scenario_mod, "UserBehavior", "workload.behavior.schedule"),
        (scenario_mod, "MobilityModel", "workload.mobility.apply"),
        (scenario_mod, "CloningModel", "workload.cloning.apply"),
        (scenario_mod, "DemandGenerator", "workload.demand.schedule"),
        (UserBehavior, "schedule_setting_changes", "workload.behavior.schedule"),
        (UserBehavior, "schedule_link_busy_periods", "workload.behavior.schedule"),
        (MobilityModel, "apply", "workload.mobility.apply"),
        (CloningModel, "apply", "workload.cloning.apply"),
        (DemandGenerator, "schedule_all", "workload.demand.schedule"),
        (vod_engine, "attach_vod", "vod.attach"),
        (NetSessionSystem, "run", "net.sim.loop"),
        (NetSessionSystem, "finalize_open_downloads", "core.system.finalize"),
        (NetSessionSystem, "audit", "invariants.audit"),
        (artifact_mod, "artifact_from_result", "runner.artifact.project"),
        (sharding_mod, "artifact_from_result", "runner.artifact.project"),
        (artifact_mod, "fingerprint_config", "runner.fingerprint.config"),
        (sharding_mod, "fingerprint_config", "runner.fingerprint.config"),
        (sharding_mod, "shard_configs", "runner.sharding.factor"),
        (sharding_mod, "merge_shard_artifacts", "runner.sharding.merge"),
        # In-loop boundary methods: child spans under the owning callback.
        (node, "query", "core.control.query"),
        (node, "login", "core.control.login"),
        (node, "register_content", "core.control.register"),
        (cn_mod, "select_peers", "core.selection.select"),
        (ColumnarPopulationStore, "materialize", "workload.columnar.materialize"),
        (AccountingService, "ingest", "core.accounting.ingest"),
        (FlowNetwork, "start_flow", "net.flows.mutation"),
        (FlowNetwork, "abort_flow", "net.flows.mutation"),
        (FlowNetwork, "set_cap", "net.flows.mutation"),
        (FlowNetwork, "set_resource_capacity", "net.flows.mutation"),
    ]


class TraceProbe:
    """What the traced block exposes besides spans."""

    def __init__(self):
        #: The columnar store of every population built (None-free); read
        #: afterwards for how many rows were ever materialised.
        self.stores: list = []


@contextmanager
def layer_spans(recorder: SpanRecorder) -> Iterator[TraceProbe]:
    """Record layer spans on ``recorder`` for the duration of the block."""
    import repro.workload.scenario as scenario_mod
    from repro.net.sim import Simulator

    wrap = recorder.wrap
    probe = TraceProbe()
    traced_build_population = wrap(
        "workload.population.build", scenario_mod.build_population)

    def build_population(*args, **kwargs):
        population = traced_build_population(*args, **kwargs)
        if population.store is not None:
            probe.stores.append(population.store)
        return population

    real_schedule_at = Simulator.schedule_at
    real_every = Simulator.every
    real_add_hook = Simulator.add_post_event_hook
    real_set_audit = Simulator.set_audit_hook

    begin, end = recorder.begin, recorder.end
    owner_ids: dict[object, int] = {}

    def timed(callback):
        """``callback`` as a span billed to its owner.  Millions of these
        are made per run, so no ``functools.wraps`` and the owner is looked
        up once per underlying function."""
        fn = _underlying(callback)
        key = getattr(fn, "__code__", fn)
        nid = owner_ids.get(key)
        if nid is None:
            nid = owner_ids[key] = recorder.name_id(
                "cb:" + callback_owner(callback))

        def call():
            sid = begin(nid)
            try:
                callback()
            finally:
                end(sid)

        return call

    def schedule_at(self, time, callback):
        return real_schedule_at(self, time, timed(callback))

    def every(self, interval, callback, **kwargs):
        return real_every(self, interval, timed(callback), **kwargs)

    def add_post_event_hook(self, hook):
        real_add_hook(self, wrap("hook:" + callback_owner(hook), hook))

    def set_audit_hook(self, hook, *, every_events):
        real_set_audit(self, wrap("invariants.audit", hook),
                       every_events=every_events)

    with ExitStack() as stack:
        for owner, name, span_name in _build_targets():
            stack.enter_context(mock.patch.object(
                owner, name, wrap(span_name, getattr(owner, name))))
        stack.enter_context(mock.patch.object(
            scenario_mod, "build_population", build_population))
        for name, new in (
            ("schedule_at", schedule_at), ("every", every),
            ("add_post_event_hook", add_post_event_hook),
            ("set_audit_hook", set_audit_hook),
        ):
            stack.enter_context(mock.patch.object(Simulator, name, new))
        yield probe
