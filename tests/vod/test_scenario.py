"""End-to-end VoD scenarios: attachment, policies under swarms, parity."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import ContentObject, ContentProvider, NetSessionSystem
from repro.core.config import InvariantConfig, SystemConfig
from repro.core.peer import CacheEntry
from repro.core.streaming import start_streaming
from repro.vod import VodConfig, make_policy
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
    run_scenario,
)
from repro.workload.devices import mobile_heavy

HOUR = 3600.0
MB = 1024 * 1024


def _tiny_vod_scenario(policy="unrestricted", *, sessions=40, seed=11):
    return ScenarioConfig(
        seed=seed,
        duration_days=1.0,
        population=PopulationConfig(n_peers=150),
        demand=DemandConfig(total_downloads=60, duration_days=1.0),
        catalog=CatalogConfig(objects_per_provider=6),
        vod=VodConfig(sessions=sessions, n_series=2, episodes_per_series=3,
                      episode_minutes=5.0, bitrate_kbps=1500.0,
                      policy=policy),
    )


class TestScenarioAttachment:
    def test_vod_none_attaches_nothing(self):
        result = run_scenario(ScenarioConfig(
            seed=3, duration_days=0.5,
            population=PopulationConfig(n_peers=60),
            demand=DemandConfig(total_downloads=20, duration_days=0.5),
            catalog=CatalogConfig(objects_per_provider=4),
        ))
        assert result.vod_runtime is None
        assert result.system.vod.snapshot().streams_started == 0
        assert not any(r.streamed for r in result.logstore.downloads)

    def test_vod_runs_and_logs_streams(self):
        result = run_scenario(_tiny_vod_scenario())
        runtime = result.vod_runtime
        assert runtime is not None
        assert runtime.sessions_scheduled == 40
        stats = result.system.stats().vod
        assert stats.streams_started > 0
        streamed = [r for r in result.logstore.downloads if r.streamed]
        assert streamed
        assert {r.cp_code for r in streamed} == {8001}

    def test_vod_stats_surface_in_system_stats_dict(self):
        result = run_scenario(_tiny_vod_scenario())
        as_dict = result.system.stats().as_dict()
        assert as_dict["vod_streams_started"] > 0

    def test_download_trace_identical_until_first_stream(self):
        # Same seed with and without the streaming layer: attaching VoD
        # consumes no draw from any download RNG, so until the first
        # viewing session arrives the download trace must be identical
        # byte for byte — the no-new-RNG-draws contract behind the golden
        # parity of the default experiments.  (After the first stream the
        # traces legitimately diverge through shared world state: viewers
        # get booted, peers get busy, and the demand generator's runtime
        # eligibility retries observe that.)
        base = _tiny_vod_scenario(seed=3)  # seed with pre-stream downloads
        with_vod = run_scenario(base)
        without_vod = run_scenario(dataclasses.replace(base, vod=None))
        first_vod = min(r.started_at for r in with_vod.logstore.downloads
                        if r.streamed)

        def pre_stream(logs):
            return sorted(
                (r.guid, r.cid, r.started_at, r.ended_at, r.outcome,
                 r.edge_bytes, r.peer_bytes)
                for r in logs.downloads
                if not r.streamed and r.cp_code != 8001
                and r.ended_at < first_vod
            )

        head = pre_stream(with_vod.logstore)
        assert head, "scenario too small: no downloads before the first stream"
        assert head == pre_stream(without_vod.logstore)

    def test_vod_scenario_is_deterministic(self):
        a = run_scenario(_tiny_vod_scenario())
        b = run_scenario(_tiny_vod_scenario())
        assert a.system.vod.snapshot() == b.system.vod.snapshot()
        key = lambda r: (r.guid, r.cid, r.started_at, r.ended_at,  # noqa: E731
                         r.outcome, r.rebuffer_events, r.startup_delay)
        assert [key(r) for r in a.logstore.downloads if r.streamed] == \
            [key(r) for r in b.logstore.downloads if r.streamed]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_popularity_seeding_respects_device_cache_budgets(self, seed):
        # Pre-seeding used to write past a storage-poor tier's budget (a
        # mobile peer holds 4 objects), which strict mode reports as a
        # device-budget error at the first audit.
        result = run_scenario(ScenarioConfig(
            seed=seed,
            duration_days=0.25,
            system=SystemConfig(invariants=InvariantConfig(mode="strict")),
            population=PopulationConfig(n_peers=60, device=mobile_heavy()),
            demand=DemandConfig(total_downloads=20, duration_days=0.25),
            catalog=CatalogConfig(objects_per_provider=6),
            vod=VodConfig(sessions=10, policy="popularity_seeding"),
        ))
        assert result.vod_runtime.copies_seeded > 0
        for peer in result.population.iter_peers():
            if peer.device.cache_objects is not None:
                assert len(peer.cache) <= peer.device.cache_objects

    def test_policies_produce_distinct_traces(self):
        seeding = run_scenario(_tiny_vod_scenario("popularity_seeding"))
        assert seeding.system.vod.snapshot().copies_seeded > 0
        assert seeding.vod_runtime.copies_seeded > 0


class TestIspLocalTinyIsp:
    """The fragile corner of isp_local: a viewer whose AS holds no copy.

    The policy filters every candidate and vetoes cross-region widening,
    so the swarm contributes nothing — and the edge backstop must carry
    the whole stream without ever stalling playback.
    """

    def _scene(self, system):
        provider = ContentProvider(cp_code=8001, name="CatchUpTV")
        provider_obj = ContentObject(
            "vod/lonely/ep-00.mp4", 60 * MB, provider, p2p_enabled=True,
        )
        system.publish(provider_obj)
        de = system.world.by_code["DE"]
        jp = system.world.by_code["JP"]
        for _ in range(10):
            seeder = system.create_peer(country=de, uploads_enabled=True)
            seeder.cache[provider_obj.cid] = CacheEntry(
                cid=provider_obj.cid, completed_at=0.0)
            seeder.boot()
        viewer = system.create_peer(country=jp, uploads_enabled=True)
        viewer.boot()
        return provider_obj, viewer

    def test_degrades_to_edge_and_never_stalls(self):
        system = NetSessionSystem(seed=21)
        video, viewer = self._scene(system)
        policy = make_policy("isp_local", [video.cid], counters=system.vod)
        system.control.install_stage(policy)
        session = start_streaming(viewer, video, bitrate=0.4 * MB,
                                  startup_buffer_s=5.0)
        system.run(until=4 * HOUR)
        assert session.peer_bytes == 0, "a foreign-AS peer served the stream"
        report = session.qoe_report()
        assert report["finished"] == 1.0
        assert report["rebuffer_events"] == 0.0

    def test_unrestricted_baseline_uses_the_swarm(self):
        # Control: identical scene without the policy finds the DE seeders
        # once the local pool is empty and the search widens.
        system = NetSessionSystem(seed=21)
        video, viewer = self._scene(system)
        session = start_streaming(viewer, video, bitrate=0.4 * MB,
                                  startup_buffer_s=5.0)
        system.run(until=4 * HOUR)
        assert session.qoe_report()["finished"] == 1.0
        assert session.peer_bytes > 0
