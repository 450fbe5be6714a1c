"""Tests for the §6.1 inter-AS traffic analyses."""

from __future__ import annotations

import random

import pytest

from repro.analysis.logstore import LogStore
from repro.analysis.records import DownloadRecord, LoginRecord
from repro.analysis.traffic import (
    build_traffic_matrix, figure9a_upload_cdf, figure9b_cumulative_contribution,
    figure9c_ips_per_as, figure10_balance_scatter, figure11_pair_balance,
    heavy_uploader_ases,
)
from repro.net.geo import GeoDatabase, GeoRecord


def geo(asn):
    return GeoRecord("DE", "Europe", "B", 50.0, 8.0, "UTC", "isp", asn)


def build_env(flows, extra_logins=()):
    """flows: list of (uploader_guid, up_asn, downloader_guid, down_asn, bytes)."""
    store = LogStore()
    geodb = GeoDatabase()
    ips = {}

    def ip_for(guid, asn):
        key = (guid, asn)
        if key not in ips:
            ip = f"ip-{guid}-{asn}"
            geodb.register(ip, geo(asn))
            ips[key] = ip
        return ips[key]

    seen_logins = set()
    for up_guid, up_asn, down_guid, down_asn, nbytes in flows:
        if (up_guid, up_asn) not in seen_logins:
            store.add_login(LoginRecord(up_guid, ip_for(up_guid, up_asn), 0.0,
                                        "v", True))
            seen_logins.add((up_guid, up_asn))
        store.add_download(DownloadRecord(
            guid=down_guid, url="u", cid="c", cp_code=1, size=nbytes,
            started_at=1.0, ended_at=2.0, edge_bytes=0, peer_bytes=nbytes,
            p2p_enabled=True, outcome="completed",
            ip=ip_for(down_guid, down_asn),
            per_uploader_bytes={up_guid: nbytes}))
    for guid, asn in extra_logins:
        store.add_login(LoginRecord(guid, ip_for(guid, asn), 0.0, "v", True))
    return store, geodb


class TestMatrix:
    def test_inter_as_flow_recorded(self):
        store, geodb = build_env([("u1", 10, "d1", 20, 1000)])
        matrix = build_traffic_matrix(store, geodb)
        assert matrix.inter_as[(10, 20)] == 1000
        assert matrix.intra_as_bytes == 0

    def test_intra_as_flow_counted_separately(self):
        store, geodb = build_env([("u1", 10, "d1", 10, 500)])
        matrix = build_traffic_matrix(store, geodb)
        assert matrix.inter_as == {}
        assert matrix.intra_as_bytes == 500
        assert matrix.intra_as_fraction == 1.0

    def test_uploader_located_via_login_at_time(self):
        """An uploader that moved gets attributed to its AS at upload time."""
        store = LogStore()
        geodb = GeoDatabase()
        geodb.register("ip-a", geo(10))
        geodb.register("ip-b", geo(30))
        geodb.register("ip-d", geo(20))
        store.add_login(LoginRecord("u1", "ip-a", 0.0, "v", True))
        store.add_login(LoginRecord("u1", "ip-b", 100.0, "v", True))
        store.add_download(DownloadRecord(
            guid="d1", url="u", cid="c", cp_code=1, size=10,
            started_at=10.0, ended_at=50.0, edge_bytes=0, peer_bytes=10,
            p2p_enabled=True, outcome="completed", ip="ip-d",
            per_uploader_bytes={"u1": 10}))
        matrix = build_traffic_matrix(store, geodb)
        assert matrix.inter_as == {(10, 20): 10}

    def test_unresolved_uploader_counted(self):
        store, geodb = build_env([])
        geodb.register("ip-d", geo(20))
        store.add_download(DownloadRecord(
            guid="d1", url="u", cid="c", cp_code=1, size=10,
            started_at=1.0, ended_at=2.0, edge_bytes=0, peer_bytes=10,
            p2p_enabled=True, outcome="completed", ip="ip-d",
            per_uploader_bytes={"ghost": 10}))
        matrix = build_traffic_matrix(store, geodb)
        assert matrix.unresolved_bytes == 10
        assert matrix.inter_as == {}

    def test_per_as_totals_include_silent_ases(self):
        store, geodb = build_env(
            [("u1", 10, "d1", 20, 100)],
            extra_logins=[("quiet", 99)])
        matrix = build_traffic_matrix(store, geodb)
        ups = matrix.per_as_uploads()
        assert ups[99] == 0
        assert ups[10] == 100
        assert matrix.per_as_downloads()[20] == 100


class TestFigures:
    def make_skewed(self):
        flows = [("whale", 1, f"d{i}", 2 + i, 10_000) for i in range(5)]
        flows += [(f"small{i}", 100 + i, "dx", 50, 10) for i in range(10)]
        return build_env(flows)

    def test_fig9a_cdf_over_all_ases(self):
        store, geodb = self.make_skewed()
        matrix = build_traffic_matrix(store, geodb)
        points = figure9a_upload_cdf(matrix)
        assert points[-1][1] == 1.0
        assert len(points) == len(matrix.observed_ases)

    def test_fig9b_cumulative_reaches_one(self):
        store, geodb = self.make_skewed()
        matrix = build_traffic_matrix(store, geodb)
        points = figure9b_cumulative_contribution(matrix)
        assert points[-1][1] == pytest.approx(1.0)

    def test_heavy_uploaders_identified(self):
        store, geodb = self.make_skewed()
        matrix = build_traffic_matrix(store, geodb)
        heavy = heavy_uploader_ases(matrix, byte_share=0.9)
        assert 1 in heavy  # the whale
        assert len(heavy) < len(matrix.observed_ases) / 2

    def test_fig9c_split_covers_all_ases(self):
        store, geodb = self.make_skewed()
        matrix = build_traffic_matrix(store, geodb)
        cdfs = figure9c_ips_per_as(matrix)
        total = len(cdfs["light"]) + len(cdfs["heavy"])
        assert total == len(matrix.observed_ases)

    def test_fig10_scatter_rows(self):
        store, geodb = build_env([
            ("u1", 10, "d1", 20, 100), ("u2", 20, "d2", 10, 90)])
        matrix = build_traffic_matrix(store, geodb)
        rows = figure10_balance_scatter(matrix)
        by_asn = {r[0]: r for r in rows}
        assert by_asn[10][1] == 100.0  # uploaded
        assert by_asn[10][2] == 90.0   # downloaded

    def test_fig11_pairwise_balance(self):
        import networkx as nx
        from repro.net.topology import ASTopology, AutonomousSystem

        store, geodb = build_env([
            ("u1", 10, "d1", 20, 100), ("u2", 20, "d2", 10, 80)])
        matrix = build_traffic_matrix(store, geodb)
        graph = nx.Graph()
        graph.add_edge(10, 20)
        ases = [
            AutonomousSystem(10, "a", "DE", "Europe", "eu", "eyeball", 1.0),
            AutonomousSystem(20, "b", "DE", "Europe", "eu", "eyeball", 1.0),
        ]
        topology = ASTopology(ases, graph)
        pairs = figure11_pair_balance(matrix, topology)
        assert pairs == [(10, 20, 100.0, 80.0)]

    def test_fig11_skips_unconnected_pairs(self):
        import networkx as nx
        from repro.net.topology import ASTopology, AutonomousSystem

        store, geodb = build_env([
            ("u1", 10, "d1", 20, 100), ("u2", 20, "d2", 10, 80)])
        matrix = build_traffic_matrix(store, geodb)
        graph = nx.Graph()
        graph.add_node(10)
        graph.add_node(20)
        ases = [
            AutonomousSystem(10, "a", "DE", "Europe", "eu", "eyeball", 1.0),
            AutonomousSystem(20, "b", "DE", "Europe", "eu", "eyeball", 1.0),
        ]
        topology = ASTopology(ases, graph)
        assert figure11_pair_balance(matrix, topology) == []
        assert len(figure11_pair_balance(matrix, topology,
                                         directly_connected_only=False)) == 1
