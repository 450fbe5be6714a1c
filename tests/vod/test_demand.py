"""Prime-time arrivals and viewer behavior."""

from __future__ import annotations

import math
import random

import pytest

from repro.vod import VodConfig, prime_time_rate
from repro.vod.demand import _REGION_TZ, VodDemandGenerator
from repro.vod.engine import attach_vod

HOUR = 3600.0
DAY = 86400.0


class TestPrimeTimeRate:
    def test_peaks_at_the_peak_hour(self):
        tz = 0.0
        rates = {h: prime_time_rate(h * HOUR, tz) for h in range(24)}
        peak = max(rates, key=rates.get)
        assert peak in (20, 21)  # default peak_hour=20.5

    def test_overnight_floor_holds(self):
        for h in range(24):
            rate = prime_time_rate(h * HOUR, 0.0, floor=0.08)
            assert 0.08 <= rate <= 1.0

    def test_timezone_shifts_the_peak(self):
        # 20:30 local in a UTC+8 region is 12:30 UTC.
        utc8 = prime_time_rate(12.5 * HOUR, 8 * HOUR)
        utc0 = prime_time_rate(12.5 * HOUR, 0.0)
        assert utc8 > utc0
        assert utc8 == pytest.approx(1.0)

    def test_sharpness_narrows_the_peak(self):
        shoulder = 17.0 * HOUR
        soft = prime_time_rate(shoulder, 0.0, sharpness=1.0)
        hard = prime_time_rate(shoulder, 0.0, sharpness=6.0)
        assert hard < soft

    def test_daily_periodicity(self):
        assert prime_time_rate(5 * HOUR, 0.0) == pytest.approx(
            prime_time_rate(5 * HOUR + 3 * DAY, 0.0))


class TestRegionTable:
    def test_covers_the_provider_mix(self):
        # The vod provider's region_mix must resolve to real tz offsets.
        from repro.vod import build_vod_catalog

        catalog = build_vod_catalog(random.Random("t"), VodConfig())
        for region in catalog.provider.region_mix:
            assert region in _REGION_TZ


def _tiny_attached_system(sessions=30, policy="unrestricted", seed=5):
    from repro.core import NetSessionSystem

    system = NetSessionSystem(seed=seed)
    country = system.world.by_code["DE"]

    class Pop:
        peers = []

        @classmethod
        def iter_peers(cls):
            return iter(cls.peers)

    for _ in range(40):
        peer = system.create_peer(country=country, uploads_enabled=True)
        peer.boot()
        Pop.peers.append(peer)
    config = VodConfig(sessions=sessions, n_series=2, episodes_per_series=3,
                       episode_minutes=4.0, bitrate_kbps=1500.0,
                       policy=policy)
    runtime = attach_vod(system, Pop, config, seed=seed, duration_days=1.0)
    return system, runtime


class TestGenerator:
    def test_schedules_the_configured_sessions(self):
        system, runtime = _tiny_attached_system(sessions=25)
        assert runtime.sessions_scheduled == 25

    def test_arrivals_concentrate_in_prime_time(self):
        system, runtime = _tiny_attached_system(sessions=200)
        demand, arrivals, found = runtime.demand, [], []
        pick = demand._pick_viewer

        def pick_viewer(region, episode):  # once per arrival that fires
            peer = pick(region, episode)
            arrivals.append(system.sim.now)
            if peer is not None:
                found.append(peer)
            return peer

        demand._pick_viewer = pick_viewer
        system.run(until=DAY)
        assert len(arrivals) == 200 and max(arrivals) < DAY
        assert found
        assert system.vod.streams_started >= len(found)

    def test_same_seed_same_arrival_schedule(self):
        a_sys, a_rt = _tiny_attached_system(sessions=40, seed=9)
        b_sys, b_rt = _tiny_attached_system(sessions=40, seed=9)
        a_sys.run(until=DAY)
        b_sys.run(until=DAY)
        assert a_sys.vod.snapshot() == b_sys.vod.snapshot()
        assert [vars(r) for r in a_sys.logstore.downloads] == \
            [vars(r) for r in b_sys.logstore.downloads]

    def test_viewers_finish_short_episodes(self):
        system, runtime = _tiny_attached_system(sessions=40)
        system.run(until=2 * DAY)
        stats = system.vod.snapshot()
        assert stats.playbacks_finished > 0

    def test_arrival_times_respect_the_horizon(self):
        system, runtime = _tiny_attached_system(sessions=50)
        gen = runtime.demand
        horizon = 1.0 * DAY
        for region in ("Europe", "US East", "Oceania"):
            for _ in range(20):
                t = gen._sample_arrival_time(region, horizon)
                assert 0.0 <= t < horizon


class TestArrivalCurveIsBuiltOncePerRegion:
    """``schedule_all`` keeps one prime-time CDF per region; sampling with
    no cache (a rebuild per session, as every session used to pay) is the
    oracle."""

    HORIZON = 3 * DAY

    def _generator(self, times):
        from types import SimpleNamespace

        from repro.vod import build_vod_catalog

        config = VodConfig(sessions=120)
        catalog = build_vod_catalog(random.Random("t"), config)
        system = SimpleNamespace(sim=SimpleNamespace(
            schedule_at=lambda t, callback: times.append(t)))
        population = SimpleNamespace(iter_peers=lambda: iter(()))
        return VodDemandGenerator(system, population, catalog, config, seed=3)

    def test_same_arrival_times_as_the_per_call_rebuild(self):
        got: list[float] = []
        self._generator(got).schedule_all(self.HORIZON)

        oracle = self._generator([])
        mix = oracle.catalog.provider.region_mix
        want = []
        for _ in range(oracle.config.sessions):
            oracle._sample_episode()
            region = oracle.rng.choices(
                list(mix), weights=list(mix.values()), k=1)[0]
            want.append(oracle._sample_arrival_time(region, self.HORIZON))
        assert got == want
        assert len(set(got)) > 100

    def test_rate_calls_are_bounded_by_regions_times_hours(self, monkeypatch):
        import repro.vod.demand as demand_mod

        calls = []
        real = demand_mod.prime_time_rate
        monkeypatch.setattr(
            demand_mod, "prime_time_rate",
            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        gen = self._generator([])
        gen.schedule_all(self.HORIZON)
        regions = len(gen.catalog.provider.region_mix)
        assert 0 < len(calls) <= regions * 72
        assert len(calls) < gen.config.sessions * 72
