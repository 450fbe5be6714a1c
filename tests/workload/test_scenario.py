"""Integration tests for the scenario driver."""

from __future__ import annotations

import pytest

from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig, run_scenario,
)


@pytest.fixture(scope="module")
def tiny_result():
    cfg = ScenarioConfig(
        seed=5, duration_days=1.5,
        population=PopulationConfig(n_peers=120),
        catalog=CatalogConfig(objects_per_provider=8),
        demand=DemandConfig(total_downloads=150, duration_days=1.5),
    )
    return run_scenario(cfg)


class TestScenarioRun:
    def test_downloads_happen(self, tiny_result):
        assert len(tiny_result.logstore.downloads) > 50

    def test_logins_happen(self, tiny_result):
        assert len(tiny_result.logstore.logins) >= 120 * 0.5

    def test_no_open_sessions_after_finalize(self, tiny_result):
        for peer in tiny_result.system.iter_peer_nodes():
            assert peer.sessions == {}

    def test_every_download_has_terminal_outcome(self, tiny_result):
        for rec in tiny_result.logstore.downloads:
            assert rec.outcome in ("completed", "failed", "aborted")

    def test_mobility_census_covers_population(self, tiny_result):
        assert sum(tiny_result.mobility_census.values()) == 120

    def test_geodb_covers_all_logged_ips(self, tiny_result):
        for rec in tiny_result.logstore.logins:
            assert tiny_result.geodb.get(rec.ip) is not None


class TestDeterminism:
    def test_same_seed_same_trace(self):
        cfg = ScenarioConfig(
            seed=77, duration_days=0.5,
            population=PopulationConfig(n_peers=60),
            catalog=CatalogConfig(objects_per_provider=5),
            demand=DemandConfig(total_downloads=40, duration_days=0.5),
        )
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        sig_a = [(r.guid, r.cid, r.outcome, r.edge_bytes, r.peer_bytes)
                 for r in a.logstore.downloads]
        sig_b = [(r.guid, r.cid, r.outcome, r.edge_bytes, r.peer_bytes)
                 for r in b.logstore.downloads]
        assert sig_a == sig_b
        assert len(a.logstore.logins) == len(b.logstore.logins)

    def test_different_seed_different_trace(self):
        base = dict(duration_days=0.5,
                    population=PopulationConfig(n_peers=60),
                    catalog=CatalogConfig(objects_per_provider=5),
                    demand=DemandConfig(total_downloads=40, duration_days=0.5))
        a = run_scenario(ScenarioConfig(seed=1, **base))
        b = run_scenario(ScenarioConfig(seed=2, **base))
        assert ({r.guid for r in a.logstore.downloads}
                != {r.guid for r in b.logstore.downloads})
