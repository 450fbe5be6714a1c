"""Correctness checks: a broken record fails the repetition and every
download in it; the digest sees any change to the trace."""

import repro.runner

from benchmarks.perf import checks, harness
from benchmarks.perf.metrics import END_TO_END
from benchmarks.perf.workloads import PANEL, WORKLOADS, panel_seeds

TINY = 0.02
WORKLOAD = WORKLOADS["download_trace"]


def tiny_artifact():
    return repro.runner.run_scenario_artifact(WORKLOAD.config(0, TINY))


def break_one_record(artifact):
    record = next(r for r in artifact.logstore.downloads
                  if r.outcome == "completed")
    record.edge_bytes += 1
    return artifact


def test_clean_artifact_passes_and_digest_is_stable():
    first, second = tiny_artifact(), tiny_artifact()
    assert checks.check_artifact(first) == []
    assert checks.trace_digest(first) == checks.trace_digest(second)


def test_broken_record_fails_the_check_and_moves_the_digest():
    clean = tiny_artifact()
    digest = checks.trace_digest(clean)
    broken = break_one_record(clean)
    failures = checks.check_artifact(broken)
    assert len(failures) == 1 and "byte conservation" in failures[0]
    assert checks.trace_digest(broken) != digest


def test_a_run_measures_the_panel_the_raw_seed_starts():
    assert panel_seeds(7)[0] == 7 and len(panel_seeds(7)) == PANEL
    assert not set(panel_seeds(7)) & set(panel_seeds(8))

    result = harness.measure(WORKLOAD, seed=7, seconds=0, scale=TINY, reps=2)
    assert result["correct"]
    assert list(result["digests"]) == [str(s) for s in panel_seeds(7)]
    assert len(set(result["digests"].values())) == PANEL  # distinct traces
    assert result["reps"] == 1 + 2 * PANEL  # warm-up, then two passes
    assert result["samples"]["wall_s"]["n"] == 2


def test_broken_record_makes_failed_share_one(monkeypatch):
    real = repro.runner.run_scenario_artifact
    monkeypatch.setattr(repro.runner, "run_scenario_artifact",
                        lambda cfg: break_one_record(real(cfg)))
    result = harness.measure(WORKLOAD, seed=0, seconds=0, scale=TINY, reps=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_a_raising_repetition_fails_its_configured_downloads(monkeypatch):
    def boom(cfg):
        raise RuntimeError("pool died")

    monkeypatch.setattr(repro.runner, "run_scenario_artifact", boom)
    result = harness.measure(WORKLOAD, seed=0, seconds=0, scale=TINY, reps=3)
    cfg = WORKLOAD.config(0, TINY)
    assert not result["correct"] and result["reps"] == 1  # stops at the failure
    assert set(result["metrics"]) == {m.name for m in END_TO_END}
    assert result["failed"] == result["attempted"] \
        == cfg.resolved_demand().total_downloads
    assert "pool died" in result["failures"][0]


def test_bands_judge_the_pooled_panel():
    import dataclasses

    tally = checks.Tally.of(tiny_artifact().logstore.downloads)
    pooled = tally + tally
    assert pooled.records == 2 * tally.records
    assert pooled.offload_fraction == tally.offload_fraction
    wide = dataclasses.replace(WORKLOAD, offload_band=(0.0, 1.0),
                               completion_band=(0.0, 1.0))
    assert checks.check_bands(wide, pooled) == []
    narrow = dataclasses.replace(wide, offload_band=(0.999, 1.0))
    failures = checks.check_bands(narrow, pooled)
    assert len(failures) == 1 and "offload" in failures[0]
