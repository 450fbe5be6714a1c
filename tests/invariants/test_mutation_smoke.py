"""Mutation smoke tests: a deliberately broken subsystem must be caught.

The sanitizer's reason to exist is catching bugs we *haven't* written yet,
so these tests write them on purpose: each one breaks a core component the
way a bad refactor would (an over-allocating water-filler, a double-credit
in session accounting, a breaker that forgets its bookkeeping) and asserts
the audit layer flags the run.  If one of these passes silently, the
invariant net has a hole in it.
"""

from __future__ import annotations

import pytest

import repro.core.peer as peer_mod
import repro.net.flows as flows_mod
from repro.core.config import InvariantConfig, SystemConfig
from repro.core.content import ContentObject, ContentProvider
from repro.core.peer import CacheEntry
from repro.core.system import NetSessionSystem
from repro.invariants import InvariantViolationError
from repro.net.nat import NATProfile, NATType
from repro.workload.devices import DeviceClass, DeviceMixConfig

MB = 1024 * 1024


def strict_system(seed=23):
    # The tiny workload processes only a few dozen simulator events, so
    # audit on (nearly) every event to sample the mid-download window.
    config = SystemConfig(
        invariants=InvariantConfig(mode="strict", every_events=5))
    return NetSessionSystem(config, seed=seed)


def start_workload(system, *, object_mb=256):
    provider = ContentProvider(cp_code=9100, name="MutCo")
    obj = ContentObject("mutco/blob.bin", object_mb * MB, provider,
                        p2p_enabled=True)
    system.publish(obj)
    country = system.world.by_code["DE"]
    seeder = system.create_peer(country=country, uploads_enabled=True)
    seeder.cache[obj.cid] = CacheEntry(obj.cid, completed_at=0.0)
    seeder.boot()
    peer = system.create_peer(country=country, uploads_enabled=True)
    peer.boot()
    system.sim.schedule(60.0, lambda: peer.start_download(obj))
    return peer, obj


class TestBrokenFlowAllocator:
    def test_overdriving_allocator_is_caught(self, monkeypatch):
        """The headline mutation: a water-filler handing out 3x the fair
        rate violates capacity feasibility within one audit interval."""
        real = flows_mod._max_min_fair

        def broken(flows, stats=None):
            return {f: rate * 3.0 for f, rate in real(flows, stats).items()}

        monkeypatch.setattr(flows_mod, "_max_min_fair", broken)
        system = strict_system()
        start_workload(system)
        with pytest.raises(InvariantViolationError) as exc:
            system.run(until=7200.0)
            system.audit(final=True)
        assert exc.value.violation.invariant == "flow-feasibility"

    def test_observe_mode_records_the_same_defect(self, monkeypatch):
        real = flows_mod._max_min_fair

        def broken(flows, stats=None):
            return {f: rate * 3.0 for f, rate in real(flows, stats).items()}

        monkeypatch.setattr(flows_mod, "_max_min_fair", broken)
        config = SystemConfig(
            invariants=InvariantConfig(mode="observe", every_events=5))
        system = NetSessionSystem(config, seed=23)
        start_workload(system)
        system.run(until=7200.0)
        system.audit(final=True)
        assert any(v.invariant == "flow-feasibility"
                   for v in system.auditor.report())


class TestBrokenSessionAccounting:
    def test_double_credited_piece_is_caught(self):
        """A session crediting bytes without holding the pieces (the shape
        of a double-delivery bug) breaks byte conservation."""
        system = strict_system()
        peer, obj = start_workload(system)

        def double_credit():
            session = peer.sessions.get(obj.cid)
            if session is not None and session.state == "active":
                session.peer_bytes += 4 * MB  # credit with no piece behind it

        system.sim.schedule(120.0, double_credit)  # mid-download
        with pytest.raises(InvariantViolationError) as exc:
            system.run(until=7200.0)
            system.audit(final=True)
        assert exc.value.violation.invariant == "byte-conservation"


class TestBrokenBreaker:
    def test_breaker_that_never_trips_is_caught(self):
        """A channel accumulating failures past its threshold without
        degrading means the breaker logic regressed."""
        system = strict_system()
        peer, _ = start_workload(system)

        def wedge_failures():
            ch = peer.channel
            ch.consecutive_failures = ch.cfg.breaker_threshold + 2

        system.sim.schedule(900.0, wedge_failures)
        with pytest.raises(InvariantViolationError) as exc:
            system.run(until=7200.0)
            system.audit(final=True)
        assert exc.value.violation.invariant == "channel-state"


class TestBrokenDeviceBudget:
    def _tiered_workload(self, system, cls, *, object_mb=64, n_objects=1,
                         seeder_cls=None):
        """A tiered seeder feeding one downloader of class ``cls``."""
        seeder_cls = cls if seeder_cls is None else seeder_cls
        classes = ((cls,) if seeder_cls is cls else (cls, seeder_cls))
        system.device_mix = DeviceMixConfig(classes=classes)
        provider = ContentProvider(cp_code=9101, name="DevCo")
        country = system.world.by_code["DE"]
        seeder = system.create_peer(country=country, uploads_enabled=True)
        seeder.device = seeder_cls
        # The tier's port-forwarding override (what build_population does
        # for smartrouters): the seeder must be reachable to serve p2p.
        seeder.nat_profile = NATProfile(
            true_type=NATType.OPEN, reported_type=NATType.OPEN)
        peer = system.create_peer(country=country, uploads_enabled=True)
        peer.device = cls
        objs = []
        for i in range(n_objects):
            obj = ContentObject(f"devco/blob{i}.bin", object_mb * MB,
                                provider, p2p_enabled=True)
            system.publish(obj)
            seeder.cache[obj.cid] = CacheEntry(obj.cid, completed_at=0.0)
            objs.append(obj)
        seeder.boot()
        peer.boot()
        for i, obj in enumerate(objs):
            system.sim.schedule(60.0 + 30.0 * i,
                                lambda o=obj: peer.start_download(o))
        return peer

    def test_cap_that_forgets_the_device_term_is_caught(self, monkeypatch):
        """The bad-refactor shape: upload_rate_cap loses the device-tier
        min().  Flows then run at the raw throttled link rate, which the
        device-budget checker recomputes and rejects mid-upload."""

        def broken(self):
            cfg = self.system.config.client
            fraction = (peer_mod.BACKOFF_RATE_FRACTION if self.link_busy
                        else cfg.upload_rate_fraction)
            return max(1.0, fraction * self.link.up_bps
                       * self.adversary_slow_factor)

        monkeypatch.setattr(peer_mod.PeerNode, "upload_rate_cap", broken)
        system = strict_system()
        router = DeviceClass(name="smartrouter", share=1.0,
                             uplink_cap_bps=1000.0)
        self._tiered_workload(system, router)
        with pytest.raises(InvariantViolationError) as exc:
            system.run(until=7200.0)
            system.audit(final=True)
        assert exc.value.violation.invariant == "device-budget"

    def test_cache_that_ignores_the_budget_is_caught(self, monkeypatch):
        """An add_to_cache that forgets tier eviction lets a one-object
        tier hold two; the budget checker flags the second completion."""

        def broken(self, cid):
            # The pre-device implementation: insert, schedule expiry,
            # register — no budget eviction.
            now = self.system.sim.now
            self.cache[cid] = CacheEntry(cid=cid, completed_at=now)
            retention = self.system.config.client.cache_retention
            self.system.sim.schedule(retention, lambda: self._evict(cid))
            if self.uploads_enabled:
                self.channel.register(
                    cid, on_registered=lambda: self._mark_registered(cid))

        monkeypatch.setattr(peer_mod.PeerNode, "add_to_cache", broken)
        system = strict_system()
        tiny = DeviceClass(name="mobile", share=1.0, cache_objects=1)
        roomy = DeviceClass(name="smartrouter", share=1.0)
        downloader = self._tiered_workload(
            system, tiny, object_mb=32, n_objects=2, seeder_cls=roomy)
        with pytest.raises(InvariantViolationError) as exc:
            system.run(until=14400.0)
            system.audit(final=True)
        violation = exc.value.violation
        assert violation.invariant == "device-budget"
        assert violation.subject == f"device:{downloader.guid[:8]}"

    def test_unbroken_tiered_workload_runs_clean(self):
        """No false positives: the real cap and eviction logic hold the
        same budgets the checker recomputes."""
        system = strict_system()
        tiny = DeviceClass(name="mobile", share=1.0, cache_objects=1)
        router = DeviceClass(name="smartrouter", share=1.0,
                             uplink_cap_bps=1000.0)
        self._tiered_workload(
            system, tiny, object_mb=32, n_objects=2, seeder_cls=router)
        system.run(until=14400.0)
        system.audit(final=True)
        assert system.auditor.report() == []


class TestBrokenEventLoop:
    def test_leaked_live_counter_is_caught_at_final_audit(self):
        """An event-loop refactor that loses track of cancellations shows
        up in the end-of-run heap sweep."""
        system = strict_system()
        start_workload(system)
        system.run(until=7200.0)
        system.sim._live += 3
        with pytest.raises(InvariantViolationError) as exc:
            system.audit(final=True)
        assert exc.value.violation.invariant == "sim-heap"
