"""Tests for the pure-infrastructure baseline: NetSession with p2p off."""

from __future__ import annotations

from repro.analysis import trace_offload
from repro.analysis.logstore import LogStore
from repro.analysis.records import DownloadRecord
from repro.core import ContentObject, ContentProvider, NetSessionSystem
from repro.core.config import SystemConfig
from repro.core.peer import CacheEntry
from repro.workload.script import wave_stats


class TestDelivery:
    def test_all_bytes_from_edge_even_with_seeders(self):
        system = NetSessionSystem(SystemConfig(p2p_globally_enabled=False),
                                  seed=5)
        provider = ContentProvider(cp_code=1, name="P")
        obj = ContentObject("f.bin", 200 * 1024 * 1024, provider,
                            p2p_enabled=True)
        system.publish(obj)
        country = system.world.by_code["DE"]
        for _ in range(5):
            seeder = system.create_peer(country=country, uploads_enabled=True)
            seeder.cache[obj.cid] = CacheEntry(obj.cid, 0.0)
            seeder.boot()
        downloader = system.create_peer(country=country)
        downloader.boot()
        session = downloader.start_download(obj)
        system.run(until=12 * 3600)
        assert session.state == "completed"
        assert session.peer_bytes == 0


class TestCostReport:
    """The offload and completion share ``exp_baselines`` reads per
    architecture."""

    def test_cost_aggregation(self):
        store = LogStore()
        store.add_download(DownloadRecord(
            guid="g", url="u", cid="c", cp_code=1, size=100, started_at=0,
            ended_at=1, edge_bytes=70, peer_bytes=30, p2p_enabled=True,
            outcome="completed"))
        store.add_download(DownloadRecord(
            guid="g2", url="u", cid="c", cp_code=1, size=100, started_at=0,
            ended_at=1, edge_bytes=50, peer_bytes=0, p2p_enabled=False,
            outcome="aborted"))
        # Edge 120 / peer 30 across the trace, whatever the outcome.
        assert trace_offload(store) == 0.2
        assert wave_stats(store.downloads)["completion_rate"] == 0.5

    def test_empty_report(self):
        store = LogStore()
        assert trace_offload(store) == 0.0
        assert wave_stats(store.downloads)["completion_rate"] == 0.0
