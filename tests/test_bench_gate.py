"""Tests for the benchmark trajectory recorder and the CI regression gate.

The gate is itself CI infrastructure: a bug here silently waves real
regressions through (or blocks every PR), so its pass/fail/misconfigured
paths and the trajectory file's shape are pinned like any other output.
"""

from __future__ import annotations

import json

import pytest

from benchmarks._results import HISTORY_LIMIT, record_results, wall_seconds
from benchmarks.gate import run_gate


class TestRecordResults:
    def test_latest_values_stay_at_top_level(self, tmp_path):
        path = tmp_path / "bench.json"
        record_results({"swarm": {"wall_seconds": 1.5}}, path=path)
        data = json.loads(path.read_text())
        assert data["swarm"]["wall_seconds"] == 1.5

    def test_history_appends_per_bench(self, tmp_path):
        path = tmp_path / "bench.json"
        record_results({"swarm": {"wall_seconds": 1.5}}, path=path)
        record_results({"swarm": {"wall_seconds": 1.2}}, path=path)
        data = json.loads(path.read_text())
        assert data["swarm"]["wall_seconds"] == 1.2  # latest wins
        series = data["history"]["swarm"]
        assert [e["wall_seconds"] for e in series] == [1.5, 1.2]
        assert all("recorded" in e for e in series)

    def test_other_benches_survive_a_merge(self, tmp_path):
        path = tmp_path / "bench.json"
        record_results({"swarm": {"wall_seconds": 1.5}}, path=path)
        record_results({"vod": {"wall_seconds": 0.8}}, path=path)
        data = json.loads(path.read_text())
        assert data["swarm"]["wall_seconds"] == 1.5
        assert data["vod"]["wall_seconds"] == 0.8
        assert set(data["history"]) == {"swarm", "vod"}

    def test_history_is_capped(self, tmp_path):
        path = tmp_path / "bench.json"
        for i in range(HISTORY_LIMIT + 5):
            record_results({"swarm": {"wall_seconds": float(i)}}, path=path)
        series = json.loads(path.read_text())["history"]["swarm"]
        assert len(series) == HISTORY_LIMIT
        # Oldest entries dropped, newest kept.
        assert series[-1]["wall_seconds"] == float(HISTORY_LIMIT + 4)

    def test_empty_results_write_nothing(self, tmp_path):
        path = tmp_path / "bench.json"
        record_results({}, path=path)
        assert not path.exists()


class TestWallSeconds:
    def test_flat_entry(self):
        assert wall_seconds({"wall_seconds": 2.5}) == 2.5

    def test_nested_production_block(self):
        assert wall_seconds({"batched": {"wall_seconds": 1.0},
                             "reference": {"wall_seconds": 9.0}}) == 1.0

    def test_no_wall_metric(self):
        assert wall_seconds({"overhead_fraction": 0.01}) is None


class TestRunGate:
    BASE = {"swarm": {"batched": {"wall_seconds": 2.0}},
            "vod": {"wall_seconds": 1.0}}

    def test_within_tolerance_passes(self, capsys):
        current = {"swarm": {"batched": {"wall_seconds": 2.4}},
                   "vod": {"wall_seconds": 1.2}}
        assert run_gate(self.BASE, current, ["swarm", "vod"], 0.25) == 0
        assert "REGRESSED" not in capsys.readouterr().out

    def test_regression_fails(self, capsys):
        current = {"swarm": {"batched": {"wall_seconds": 3.0}},
                   "vod": {"wall_seconds": 1.0}}
        assert run_gate(self.BASE, current, ["swarm", "vod"], 0.25) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_improvement_passes(self):
        current = {"swarm": {"batched": {"wall_seconds": 0.5}},
                   "vod": {"wall_seconds": 0.4}}
        assert run_gate(self.BASE, current, ["swarm", "vod"], 0.25) == 0

    def test_missing_bench_is_a_config_error(self):
        assert run_gate(self.BASE, self.BASE, ["nonexistent"], 0.25) == 2

    def test_ungateable_entry_is_a_config_error(self):
        base = {"overhead": {"overhead_fraction": 0.01}}
        assert run_gate(base, base, ["overhead"], 0.25) == 2
