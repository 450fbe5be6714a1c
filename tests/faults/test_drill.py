"""Tests for the drill harness, the CLI path, and the fault-matrix sweep."""

from __future__ import annotations

import pytest

import repro.runner.artifact as artifact_module
from repro.experiments import exp_fault_matrix
from repro.faults import drill_config, run_drill
from repro.workload import ScenarioConfig, run_scenario
from repro.workload.scenario import PopulationConfig
from repro.workload.catalog import CatalogConfig
from repro.workload.demand import DemandConfig
from repro.faults.scenarios import build_scenario


class TestDrill:
    def test_blackout_drill_tells_the_full_story(self):
        report = run_drill("control_plane_blackout", seed=42)
        during = report.wave_stats("during")
        # Started mid-blackout: no CN anywhere, so every download is
        # edge-only — and still completes (§3.8 fallback).
        assert during["completion_rate"] == 1.0
        assert during["edge_only"] == during["downloads"]
        assert during["mean_peer_fraction"] == 0.0
        # Before recovery completes and after it, the swarm carries weight.
        assert report.wave_stats("before")["mean_peer_fraction"] > 0.2
        after = report.wave_stats("after")
        assert after["completion_rate"] == 1.0
        assert after["mean_peer_fraction"] > 0.2
        rec = report.recoveries[0]
        assert rec.connected_dip > 0
        assert rec.time_to_reconnect is not None
        assert rec.re_add_convergence is not None

    def test_report_text_is_byte_identical_across_runs(self, monkeypatch):
        runs = []
        real = artifact_module.run_scenario
        monkeypatch.setattr(artifact_module, "run_scenario",
                            lambda config: runs.append(config) or real(config))
        a = run_drill("control_plane_blackout", seed=42)
        b = run_drill("control_plane_blackout", seed=42)
        assert len(runs) == 2  # simulated twice: no memo in between
        assert a.text == b.text
        assert a.text  # non-empty, renderable

    def test_different_seeds_differ(self):
        a = run_drill("cn_flap", seed=1)
        b = run_drill("cn_flap", seed=2)
        assert a.text != b.text

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_drill("meteor_strike")

    def test_wave_stats_empty_wave(self):
        report = run_drill("dn_wipe", seed=3)
        assert report.wave_stats("nonexistent")["downloads"] == 0

    def test_wave_past_the_horizon_is_rejected(self):
        # The after wave would start at 600 + 45000 + 900 s, past the
        # 12 h horizon: an error, not an empty wave.
        with pytest.raises(ValueError, match="after.*horizon"):
            drill_config("control_plane_blackout", 42, fault_duration=45000.0)
        # The last start (not the first) decides.
        with pytest.raises(ValueError, match="after"):
            drill_config("dn_wipe", 42, fault_at=600.0,
                         fault_duration=3600.0, horizon=5100.0 + 30.0)
        drill_config("dn_wipe", 42, fault_at=600.0, fault_duration=3600.0,
                     horizon=5100.0 + 45.0 + 1.0)

    def test_drill_is_a_scripted_config(self):
        config = drill_config("cn_flap", 5, wave_size=2)
        assert config.script is not None
        assert [w.label for w in config.script.waves] == \
            ["before", "during", "after"]
        assert config.script.waves[1].starts == (1500.0, 1515.0)
        assert config.duration_days == 0.5
        assert config.faults


class TestWorkloadIntegration:
    def test_scenario_config_carries_faults(self):
        cfg = ScenarioConfig(
            seed=7,
            duration_days=1.0,
            population=PopulationConfig(n_peers=120),
            demand=DemandConfig(total_downloads=80, duration_days=1.0),
            catalog=CatalogConfig(objects_per_provider=8),
            faults=build_scenario("dn_wipe", at=6 * 3600.0, duration=3600.0),
        )
        result = run_scenario(cfg)
        assert result.injector is not None
        assert len(result.injector.recoveries) == len(result.injector.specs)
        assert any(e.phase == "applied" for e in result.injector.timeline)

    def test_no_faults_no_injector(self):
        cfg = ScenarioConfig(
            seed=7,
            duration_days=0.5,
            population=PopulationConfig(n_peers=60),
            demand=DemandConfig(total_downloads=30, duration_days=0.5),
            catalog=CatalogConfig(objects_per_provider=8),
        )
        result = run_scenario(cfg)
        assert result.injector is None


class TestFaultMatrix:
    def test_small_matrix_meets_the_paper_story(self):
        out = exp_fault_matrix.run("small", 42)
        assert out.text and out.metrics
        # A healthy baseline, per the §5.2 outcome numbers.
        assert out.metrics["baseline_completed"] >= 0.9
        # The blackout must visibly hurt: lower completion in the fault
        # window, or more downloads falling back to edge-only delivery.
        blackout_worse = (
            out.metrics["control_plane_blackout_completion_delta"] < 0
            or out.metrics["control_plane_blackout_fallback_delta"] > 0
        )
        assert blackout_worse

    def test_matrix_is_cached_per_scale_and_seed(self):
        a = exp_fault_matrix.run("small", 42)
        b = exp_fault_matrix.run("small", 42)
        assert a.text == b.text


class TestDrillJSON:
    def test_as_json_round_trips_and_is_deterministic(self):
        import json

        def one():
            report = run_drill("cn_flap", 5, fault_duration=900.0,
                               horizon=2 * 3600.0)
            return json.dumps(report.as_json(), sort_keys=True)

        first, second = one(), one()
        assert first == second
        data = json.loads(first)
        assert data["scenario"] == "cn_flap"
        assert data["seed"] == 5
        assert set(data["waves"]) == {"before", "during", "after"}
        for stats in data["waves"].values():
            assert {"downloads", "completed", "completion_rate",
                    "edge_only", "mean_peer_fraction"} <= set(stats)
        assert data["recoveries"]  # the flap recovered
        # the channel block carries the §3.8 robustness counters
        assert "breaker_trips" in data["channel"]
        assert "degraded_seconds" in data["channel"]
        assert "mean_time_to_recover" in data["channel"]

    def test_lossy_scenario_reports_channel_damage(self):
        report = run_drill("control_message_loss", 3, fault_duration=1200.0,
                           horizon=2 * 3600.0)
        assert report.channel["lost_messages"] > 0
        assert report.channel["retries"] > 0
        assert "control-channel robustness" in report.text
