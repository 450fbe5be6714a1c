"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_scale_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--scale", "galactic"])


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == list(EXPERIMENTS)  # each name once, in order

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "exp_nonsense"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_run_single_experiment(self, capsys):
        assert main(["run", "exp_offload", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "offload summary" in out
        assert "peer efficiency" in out

    def test_trace_exports_files(self, tmp_path, capsys):
        assert main(["trace", "--out", str(tmp_path / "t"),
                     "--scale", "small", "--seed", "7"]) == 0
        for name in ("downloads", "logins", "registrations", "geolocation"):
            assert (tmp_path / "t" / f"{name}.jsonl").exists()


class TestFaultsCommand:
    def test_list_scenarios(self, capsys):
        from repro.faults import scenario_names

        assert main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_unknown_scenario_fails(self, capsys):
        assert main(["faults", "--scenario", "meteor_strike"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_drill_output_is_deterministic(self, capsys, monkeypatch):
        import repro.runner.artifact as artifact_module

        runs = []
        real = artifact_module.run_scenario
        monkeypatch.setattr(artifact_module, "run_scenario",
                            lambda config: runs.append(config) or real(config))
        args = ["faults", "--scenario", "dn_wipe", "--seed", "7",
                "--duration", "600"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert len(runs) == 2  # simulated twice: no memo in between
        assert first == second
        assert "injection timeline" in first
        assert "recovery metrics" in first


class TestPerfCommand:
    def test_perf_prints_counter_table(self, capsys):
        assert main(["perf", "--scale", "small", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "perf counters" in out
        assert "wall_seconds" in out
        assert "flow_waterfill_calls" in out
        assert "pending_events" in out

    def test_run_perf_flag_appends_counters_after_tables(self, capsys):
        assert main(["run", "exp_offload", "--scale", "small", "--perf"]) == 0
        out = capsys.readouterr().out
        # Counters come strictly after the experiment's own output, so the
        # paper-style text (and its goldens) is unchanged by --perf.
        assert out.index("offload summary") < out.index("perf counters")
        assert "flow_waterfill_calls" in out

    def test_perf_json_emits_machine_readable_counters(self, capsys):
        import json

        assert main(["perf", "--scale", "small", "--seed", "7",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scale"] == "small"
        assert data["flow_waterfill_calls"] > 0
        assert data["wall_seconds"] >= 0


class TestFaultsJSONFlag:
    def test_json_flag_emits_machine_readable_report(self, capsys):
        import json

        args = ["faults", "--scenario", "control_message_loss", "--seed", "7",
                "--duration", "1200", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        data = json.loads(first)
        assert data["scenario"] == "control_message_loss"
        assert data["channel"]["lost_messages"] > 0
        assert main(args) == 0
        assert capsys.readouterr().out == first  # byte-stable for CI diffs


def _tiny_config(seed: int = 5):
    """A sub-100ms scenario: just enough to populate the result cache."""
    from repro.workload import (
        CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
    )

    return ScenarioConfig(
        seed=seed,
        duration_days=0.5,
        population=PopulationConfig(n_peers=60),
        demand=DemandConfig(total_downloads=50, duration_days=0.5),
        catalog=CatalogConfig(objects_per_provider=6),
    )


class TestCacheCommand:
    def test_ls_on_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "cache empty" in capsys.readouterr().out

    def test_ls_verify_clear_roundtrip(self, tmp_path, capsys):
        from repro.runner import Orchestrator, ResultCache

        Orchestrator(cache=ResultCache(tmp_path)).run_many([_tiny_config()])

        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out

        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert "ok: 1 entries verified" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "cache empty" in capsys.readouterr().out

    def test_verify_flags_corruption_and_exits_nonzero(self, tmp_path, capsys):
        from repro.runner import Orchestrator, ResultCache

        Orchestrator(cache=ResultCache(tmp_path)).run_many([_tiny_config()])
        payload = next(tmp_path.rglob("*.pkl"))
        blob = bytearray(payload.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        payload.write_bytes(bytes(blob))

        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "CORRUPT" in captured.err
        assert "1 of 1 entries corrupt" in captured.out


class TestFaultsAllFlag:
    def test_all_runs_library_in_order_and_parallel_matches_serial(
            self, monkeypatch, capsys):
        import json

        import repro.faults as faults_pkg
        import repro.faults.scenarios as scenarios_module

        # Trim the library to two scenarios so the drill matrix stays
        # tier-1 cheap; the full 13-scenario run is CI's fault-smoke job.
        subset = {name: scenarios_module.SCENARIOS[name]
                  for name in ("dn_wipe", "cn_flap")}
        monkeypatch.setattr(scenarios_module, "SCENARIOS", subset)
        monkeypatch.setattr(faults_pkg, "SCENARIOS", subset)

        base = ["faults", "--all", "--seed", "7", "--duration", "600",
                "--json"]
        assert main(base + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        pooled = capsys.readouterr().out

        assert serial == pooled  # byte-identical at any pool width
        data = json.loads(serial)
        assert [d["scenario"] for d in data] == ["dn_wipe", "cn_flap"]


class TestRunJsonFlag:
    def test_parser_accepts_the_json_flag(self):
        args = build_parser().parse_args(
            ["run", "exp_vod_policies", "--json", "--jobs", "2"])
        assert args.command == "run"
        assert args.experiments == ["exp_vod_policies"]
        assert args.jobs == 2
        assert args.json_report

    @pytest.mark.parametrize("command", ["vod", "devices"])
    def test_retired_sweep_commands_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scale", "small"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_json_with_perf_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "exp_offload", "--json", "--perf"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_json_lists_one_object_per_experiment(self, capsys):
        import json

        assert main(["run", "exp_offload", "exp_table1", "--scale", "small",
                     "--jobs", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in report] == ["offload", "table1"]
        for entry in report:
            assert set(entry) == {"name", "scale", "seed", "metrics"}
            assert (entry["scale"], entry["seed"]) == ("small", 42)
            assert entry["metrics"]

    @pytest.mark.slow
    def test_json_report_is_byte_stable_across_pool_widths(
            self, tmp_path, capsys, monkeypatch):
        import json

        import repro.experiments.common as common
        from repro.runner import Orchestrator

        def cold_run(jobs, cache):
            # Own empty memo per run: --jobs must not lean on leftovers.
            memo: dict = {}
            monkeypatch.setattr(common, "_ARTIFACTS", memo)
            monkeypatch.setattr(common, "_RUNNER", Orchestrator(memory=memo))
            assert main(["run", "exp_vod_policies", "--scale", "small",
                         "--jobs", str(jobs), "--json",
                         "--cache-dir", str(tmp_path / cache)]) == 0
            return capsys.readouterr().out

        serial = cold_run(1, "serial")
        pooled = cold_run(4, "pooled")
        assert pooled == serial
        report = json.loads(serial)
        assert report[0]["name"] == "vod_policies"
        assert report[0]["metrics"]["unrestricted_peak_transit_bytes"] > 0


class TestAuditCommand:
    def test_audit_drill_prints_report(self, capsys):
        args = ["audit", "--scenario", "dn_wipe", "--seed", "7",
                "--duration", "600"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "invariant audit" in out
        assert "mode" in out

    @pytest.mark.parametrize("command", ["faults", "audit"])
    def test_wave_past_the_horizon_exits_2(self, command, capsys):
        assert main([command, "--scenario", "control_plane_blackout",
                     "--duration", "45000"]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_audit_unknown_scenario_fails(self, capsys):
        assert main(["audit", "--scenario", "meteor_strike"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_audit_strict_drill_exits_clean(self, capsys):
        # The library scenarios are sanitizer-clean, so strict mode is a
        # successful run, not an error exit.
        args = ["audit", "--scenario", "cn_flap", "--seed", "7",
                "--duration", "600", "--strict"]
        assert main(args) == 0
        assert "strict" in capsys.readouterr().out

    def test_audit_json_is_machine_readable(self, capsys):
        import json

        args = ["audit", "--scenario", "dn_wipe", "--seed", "7",
                "--duration", "600", "--json"]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["errors"] == 0
        assert "violations" in data

    def test_audit_every_flag_tightens_cadence(self, capsys):
        import json

        base = ["audit", "--scenario", "dn_wipe", "--seed", "7",
                "--duration", "600", "--json"]
        assert main(base) == 0
        sparse = json.loads(capsys.readouterr().out)
        assert main(base + ["--every", "50"]) == 0
        dense = json.loads(capsys.readouterr().out)
        assert dense["audits"] > sparse["audits"]
