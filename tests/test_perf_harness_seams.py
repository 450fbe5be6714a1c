"""The names the frozen benchmark harness reaches into ``src/`` by.

``benchmarks/perf`` may not change in the PR it measures, and it patches
and calls ``repro`` by name: the ``resolve_*`` accessors, the module paths
it imports, and every ``(owner, attribute)`` its stamps and spans wrap.  A
deletion that breaks one of those would otherwise only fail after merge,
in the benchmark pipeline; here it fails in tier-1.
"""

from __future__ import annotations

import dataclasses

import pytest

from benchmarks.perf import harness, tracing
from benchmarks.perf.spans import SpanRecorder
from benchmarks.perf.workloads import WORKLOADS
from repro.workload.population import Population
from repro.workload.scenario import ScenarioConfig


def test_resolved_modes_reports_the_one_path_per_layer():
    modes = harness.resolved_modes()
    assert set(modes) == {"kernel", "population_store", "shards", "invariants"}
    assert modes["kernel"] == "python"
    assert modes["population_store"] == "columnar"
    assert modes["shards"] == 2


def test_every_span_target_resolves():
    for owner, attr, span in tracing._build_targets():
        assert getattr(owner, attr, None) is not None, (owner, attr, span)


def test_stamps_and_spans_attach_and_detach(tmp_path):
    """``mock.patch.object`` raises on a missing attribute, so entering the
    two context managers checks every target they hard-code — including
    ``scenario.build_population``, the seam ``Population.store`` is read
    behind."""
    import repro.workload.scenario as scenario_mod

    real = scenario_mod.build_population
    with tracing.phase_stamps(tracing.StampSpool(tmp_path / "stamps.jsonl")):
        pass
    with tracing.layer_spans(SpanRecorder()) as probe:
        assert scenario_mod.build_population is not real
    assert scenario_mod.build_population is real
    assert probe.stores == []
    # The wrapped build reads ``population.store`` off what it returns.
    assert "store" in {f.name for f in dataclasses.fields(Population)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_build(name):
    config = WORKLOADS[name].config(42)
    assert isinstance(config, ScenarioConfig)
    if config.sharding is not None:
        assert config.sharding.resolve_shards() == config.sharding.shards


def test_a_woken_clock_bills_its_ticks_to_its_callback_module():
    """``Clock.wake`` re-arms inside the clock, not through the patched
    ``Simulator.schedule_at``, so its ticks must still run the callback
    that the patched ``every`` wrapped."""
    from repro.net.sim import Simulator

    recorder = SpanRecorder()
    fired = []
    with tracing.layer_spans(recorder):
        sim = Simulator()
        clock = sim.every(1.0, lambda: fired.append(sim.now))
        sim.run(until=1.5)
        clock.suspend()
        sim.run(until=3.5)
        clock.wake()
        sim.run(until=5.5)
    assert fired == [1.0, 4.0, 5.0]
    assert recorder.totals()[f"cb:{__name__}"].count == 3
