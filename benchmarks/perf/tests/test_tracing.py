"""Outside-in instrumentation: attribution, clean removal, env, fork."""

import multiprocessing
import os

import pytest

from benchmarks.perf import harness
from benchmarks.perf.spans import SpanRecorder
from benchmarks.perf.tracing import (
    StampSpool, callback_owner, layer_spans, phase_stamps, require_fork,
)
from benchmarks.perf.workloads import WORKLOADS
from repro.net.flows import FlowNetwork
from repro.net.sim import Simulator

TINY = 0.02


def test_callback_owner_resolves_methods_partials_and_lambdas():
    import functools

    sim = Simulator()
    flows = FlowNetwork(sim)
    assert callback_owner(flows._on_completion_tick) == "net.flows"
    assert callback_owner(functools.partial(flows.flush)) == "net.flows"
    assert callback_owner(lambda: None) == __name__


def test_three_event_simulator_bills_each_callback_to_its_module():
    recorder = SpanRecorder()
    fired = []
    with layer_spans(recorder):
        sim = Simulator()
        flows = FlowNetwork(sim)  # registers the post-event settle hook
        sim.schedule(1.0, lambda: fired.append("mine"))
        sim.schedule(2.0, flows._on_completion_tick)
        sim.every(3.0, lambda: fired.append("tick"), until=3.0)
        sim.run()
    totals = recorder.totals()
    assert fired == ["mine", "tick"]
    assert totals[f"cb:{__name__}"].count == 2  # the two lambdas
    assert totals["cb:net.flows"].count == 1
    assert totals["hook:net.flows"].count == 3  # once per event


def test_wrappers_are_gone_after_a_traced_run():
    workload = WORKLOADS["vod_evening"]
    before = (Simulator.schedule_at, Simulator.every, FlowNetwork.start_flow)
    traced = harness.trace(workload, seed=0, scale=TINY)
    assert traced["spans"] > 0 and traced["correct"]
    assert (Simulator.schedule_at, Simulator.every,
            FlowNetwork.start_flow) == before

    recorder = SpanRecorder()
    with layer_spans(recorder):
        pass
    following = harness.measure(workload, seed=0, seconds=0, scale=TINY, reps=1)
    assert len(recorder) == 0
    assert following["digests"]["0"] == traced["digests"]["0"]


def test_phase_stamps_split_setup_from_sim(tmp_path):
    workload = WORKLOADS["download_trace"]
    spool = StampSpool(tmp_path / "stamps.jsonl")
    with phase_stamps(spool):
        rep, _ = harness.run_rep(workload.config(0, TINY), spool)
    assert rep.setup_s > 0 and rep.sim_s > 0
    assert rep.setup_s + rep.sim_s <= rep.wall_s
    assert spool.drain() == []


def test_spool_collects_records_written_by_a_forked_child(tmp_path):
    spool = StampSpool(tmp_path / "stamps.jsonl")
    spool.put({"who": "parent"})
    pid = os.fork()
    if pid == 0:
        spool.put({"who": "child"})
        os._exit(0)
    os.waitpid(pid, 0)
    assert [r["who"] for r in spool.drain()] == ["parent", "child"]
    assert spool.drain() == []


def test_env_scrub_drops_the_four_variables():
    environ = {name: "x" for name in harness.ENV_VARS}
    environ["REPRO_CACHE_DIR"] = "kept"
    assert sorted(harness.scrub_env(environ)) == sorted(harness.ENV_VARS)
    assert environ == {"REPRO_CACHE_DIR": "kept"}
    assert harness.scrub_env(environ) == []


def test_non_fork_start_method_raises(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_start_method", lambda: "spawn")
    require_fork(1)  # in-process runs need no pool
    with pytest.raises(RuntimeError, match="refusing to measure"):
        require_fork(2)
    with pytest.raises(RuntimeError, match="refusing to measure"):
        harness.measure(WORKLOADS["sharded_regions"], seed=0, seconds=0,
                        scale=TINY, reps=1)
