"""End-to-end invariants over a full synthetic trace."""

from __future__ import annotations

import pytest

from repro.analysis import (
    build_traffic_matrix, figure6_efficiency_vs_peers, mobility_summary,
    offload_summary, reliability_outcomes, table1_overall_statistics,
)
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig, run_scenario,
)


@pytest.fixture(scope="module")
def result():
    cfg = ScenarioConfig(
        seed=13, duration_days=2.0,
        population=PopulationConfig(n_peers=350),
        catalog=CatalogConfig(objects_per_provider=20),
        demand=DemandConfig(total_downloads=420, duration_days=2.0),
    )
    return run_scenario(cfg)


class TestRecordConsistency:
    def test_bytes_never_exceed_size(self, result):
        for rec in result.logstore.downloads:
            assert rec.total_bytes <= rec.size * 1.01 + 1

    def test_completed_downloads_got_all_bytes(self, result):
        for rec in result.logstore.downloads:
            if rec.outcome == "completed":
                assert rec.total_bytes == rec.size

    def test_per_uploader_sums_to_peer_bytes(self, result):
        for rec in result.logstore.downloads:
            assert sum(rec.per_uploader_bytes.values()) == rec.peer_bytes

    def test_durations_non_negative(self, result):
        for rec in result.logstore.downloads:
            assert rec.ended_at >= rec.started_at

    def test_infra_only_records_have_no_peer_bytes(self, result):
        for rec in result.logstore.downloads:
            if not rec.p2p_enabled:
                assert rec.peer_bytes == 0
                assert rec.peers_initially_returned == 0

    def test_all_download_ips_geolocated(self, result):
        for rec in result.logstore.downloads:
            if rec.ip:
                assert result.geodb.get(rec.ip) is not None


class TestAccountingConsistency:
    def test_no_honest_report_rejected(self, result):
        # The standard population has no attackers: everything validates.
        assert result.system.accounting.rejected == []

    def test_edge_logs_cover_claimed_edge_bytes(self, result):
        edge = result.system.edge
        for rec in result.logstore.downloads:
            if rec.outcome != "completed":
                continue
            trusted = edge.trusted_bytes_served(rec.guid, rec.cid)
            assert trusted >= rec.edge_bytes * 0.98 - 1024

    def test_billing_totals_match_accepted_reports(self, result):
        acc = result.system.accounting
        billed = sum(s.total_bytes for s in acc.billing.values())
        reported = sum(r.claimed_edge_bytes + r.claimed_peer_bytes
                       for r in acc.accepted)
        assert billed == reported


class TestUploaderDiscipline:
    def test_uploaders_had_uploads_enabled_or_were_registered(self, result):
        registered = {r.guid for r in result.logstore.registrations}
        for rec in result.logstore.downloads:
            for uploader in rec.per_uploader_bytes:
                assert uploader in registered

    def test_upload_budget_respected(self, result):
        cap = result.system.config.client.max_uploads_per_object
        for peer in result.population.peers:
            for cid, count in peer.uploads_done.items():
                assert count <= cap


class TestHeadlineShapes:
    def test_offload_in_plausible_band(self, result):
        summary = offload_summary(result.logstore)
        # Shape: the majority of peer-assisted bytes come from peers.
        assert summary.byte_weighted_efficiency > 0.4

    def test_efficiency_grows_with_candidates(self, result):
        rows = figure6_efficiency_vs_peers(result.logstore)
        low = [eff for k, eff, n in rows if k == 0]
        high = [eff for k, eff, n in rows if k >= 5 and n > 0]
        if low and high:
            assert max(high) > low[0]

    def test_p2p_downloads_pause_more(self, result):
        outcomes = reliability_outcomes(result.logstore)
        assert (outcomes["peer_assisted"]["aborted"]
                >= outcomes["infrastructure"]["aborted"])

    def test_more_ips_than_guids(self, result):
        stats = table1_overall_statistics(result.logstore, result.geodb)
        assert stats.distinct_ips > stats.guids

    def test_mobility_mostly_single_as(self, result):
        summary = mobility_summary(result.logstore, result.geodb)
        assert summary.one_as > 0.6
        assert summary.one_as + summary.two_as + summary.more_as == pytest.approx(1.0)

    def test_traffic_matrix_resolves_most_bytes(self, result):
        matrix = build_traffic_matrix(result.logstore, result.geodb)
        total_peer = sum(r.peer_bytes for r in result.logstore.downloads)
        if total_peer:
            assert matrix.total_bytes >= 0.9 * total_peer
