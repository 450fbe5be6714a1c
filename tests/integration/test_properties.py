"""Property-based end-to-end tests: invariants over randomized swarms.

Hypothesis drives randomized (but bounded) hybrid-download scenes and
checks the conservation laws that must hold regardless of swarm
composition, link speeds, NAT luck, or churn timing.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ContentObject, ContentProvider, NetSessionSystem, SystemConfig
from repro.core.peer import CacheEntry

MB = 1024 * 1024
HOUR = 3600.0

scene = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=10_000),
    "size_mb": st.integers(min_value=8, max_value=900),
    "seeders": st.integers(min_value=0, max_value=18),
    "p2p_enabled": st.booleans(),
    "churn_at": st.one_of(st.none(), st.floats(min_value=5.0, max_value=600.0)),
})


def run_scene(params):
    system = NetSessionSystem(seed=params["seed"])
    provider = ContentProvider(cp_code=1, name="P")
    obj = ContentObject("x.bin", params["size_mb"] * MB, provider,
                        p2p_enabled=params["p2p_enabled"])
    system.publish(obj)
    country = system.world.by_code["DE"]
    seeders = []
    for _ in range(params["seeders"]):
        s = system.create_peer(country=country, uploads_enabled=True)
        s.cache[obj.cid] = CacheEntry(obj.cid, 0.0)
        s.boot()
        seeders.append(s)
    downloader = system.create_peer(country=country, uploads_enabled=True)
    downloader.boot()
    session = downloader.start_download(obj)
    if params["churn_at"] is not None and seeders:
        for s in seeders[::2]:
            system.sim.schedule(params["churn_at"], s.go_offline)
    system.run(until=30 * HOUR)
    return system, obj, downloader, session


class TestSwarmInvariants:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params=scene)
    def test_conservation_and_termination(self, params):
        system, obj, downloader, session = run_scene(params)

        # 1. The download terminates (no deadlocks) given ample time.
        assert session.state == "completed", session.state

        # 2. Byte conservation: useful bytes equal the object size exactly.
        assert session.edge_bytes + session.peer_bytes == obj.size

        # 3. Attribution: per-uploader bytes sum to the peer total and only
        #    name real peers.
        assert sum(session.per_uploader_bytes.values()) == session.peer_bytes
        for guid in session.per_uploader_bytes:
            assert guid in system.peer_by_guid

        # 4. Edge truth: trusted edge logs cover what the session counted.
        trusted = system.edge.trusted_bytes_served(downloader.guid, obj.cid)
        assert trusted >= session.edge_bytes

        # 5. No p2p bytes when p2p is off for the object.
        if not obj.p2p_enabled:
            assert session.peer_bytes == 0

        # 6. The completed copy is cached and (uploads on) registered.
        assert downloader.has_complete(obj.cid)

        # 7. Upload slot accounting returned to zero everywhere.
        for peer in system.iter_peer_nodes():
            assert peer.active_upload_count == 0
            assert not peer.upload_flows

        # 8. Exactly one download record, consistent with the session.
        records = [r for r in system.logstore.downloads
                   if r.guid == downloader.guid]
        assert len(records) == 1
        assert records[0].peer_bytes == session.peer_bytes
        assert records[0].outcome == "completed"

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params=scene, pause_at=st.floats(min_value=2.0, max_value=120.0))
    def test_pause_resume_preserves_conservation(self, params, pause_at):
        system = NetSessionSystem(seed=params["seed"])
        provider = ContentProvider(cp_code=1, name="P")
        obj = ContentObject("x.bin", params["size_mb"] * MB, provider,
                            p2p_enabled=params["p2p_enabled"])
        system.publish(obj)
        country = system.world.by_code["DE"]
        for _ in range(params["seeders"]):
            s = system.create_peer(country=country, uploads_enabled=True)
            s.cache[obj.cid] = CacheEntry(obj.cid, 0.0)
            s.boot()
        downloader = system.create_peer(country=country, uploads_enabled=True)
        downloader.boot()
        session = downloader.start_download(obj)
        system.sim.schedule(pause_at, session.pause)
        system.sim.schedule(pause_at + 600.0, session.resume)
        system.run(until=30 * HOUR)
        assert session.state == "completed"
        assert session.edge_bytes + session.peer_bytes == obj.size
        assert len(session.received) == obj.num_pieces
