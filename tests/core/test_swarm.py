"""Tests for the download engine: sessions, swarming, backstop, integrity."""

from __future__ import annotations

import pytest

from repro.core import ContentObject, NetSessionSystem, SystemConfig
from repro.core.peer import CacheEntry
from repro.core.swarm import Chunk
from tests.conftest import make_swarm_scene

HOUR = 3600.0


class TestChunk:
    def test_empty_chunk_rejected(self):
        with pytest.raises(ValueError):
            Chunk([])

    def test_size_sums_piece_sizes(self, big_object):
        chunk = Chunk([0, 1, 2])
        from repro.core.content import PIECE_SIZE
        assert chunk.size(big_object) == 3 * PIECE_SIZE

    def test_split_at_bytes_whole_pieces_only(self, big_object):
        from repro.core.content import PIECE_SIZE
        chunk = Chunk([0, 1, 2])
        done, rest = chunk.split_at_bytes(big_object, 1.5 * PIECE_SIZE)
        assert done == [0]
        assert rest == [1, 2]

    def test_split_all_transferred(self, big_object):
        from repro.core.content import PIECE_SIZE
        chunk = Chunk([0, 1])
        done, rest = chunk.split_at_bytes(big_object, 2 * PIECE_SIZE)
        assert done == [0, 1]
        assert rest == []

    def test_split_nothing_transferred(self, big_object):
        chunk = Chunk([0, 1])
        done, rest = chunk.split_at_bytes(big_object, 0.0)
        assert done == []
        assert rest == [0, 1]


class TestEdgeOnlyDownload:
    def test_infra_object_downloads_from_edge_only(self, system, small_object):
        system.publish(small_object)
        peer = system.create_peer(uploads_enabled=True)
        peer.boot()
        session = peer.start_download(small_object)
        system.run(until=2 * HOUR)
        assert session.state == "completed"
        assert session.peer_bytes == 0
        assert session.edge_bytes == small_object.size

    def test_completion_rate_matches_downlink(self, system, small_object):
        system.publish(small_object)
        peer = system.create_peer()
        peer.boot()
        session = peer.start_download(small_object)
        system.run(until=2 * HOUR)
        expected = small_object.size / peer.link.down_bps
        took = session.ended_at - session.started_at
        assert took == pytest.approx(expected, rel=0.05)

    def test_download_recorded_in_logs(self, system, small_object):
        system.publish(small_object)
        peer = system.create_peer()
        peer.boot()
        peer.start_download(small_object)
        system.run(until=2 * HOUR)
        recs = [r for r in system.logstore.downloads if r.guid == peer.guid]
        assert len(recs) == 1
        assert recs[0].outcome == "completed"
        assert recs[0].edge_bytes == small_object.size

    def test_edge_bytes_logged_at_edge_servers(self, system, small_object):
        system.publish(small_object)
        peer = system.create_peer()
        peer.boot()
        peer.start_download(small_object)
        system.run(until=2 * HOUR)
        assert system.edge.trusted_bytes_served(
            peer.guid, small_object.cid) == small_object.size

    def test_duplicate_start_returns_same_session(self, system, small_object):
        system.publish(small_object)
        peer = system.create_peer()
        peer.boot()
        a = peer.start_download(small_object)
        b = peer.start_download(small_object)
        assert a is b

    def test_unpublished_object_fails_authorization(self, system, small_object):
        peer = system.create_peer()
        peer.boot()
        session = peer.start_download(small_object)
        assert session.state == "failed"


class TestPeerAssistedDownload:
    def test_peers_supply_majority_of_bytes(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        session = downloader.start_download(obj)
        system.run(until=8 * HOUR)
        assert session.state == "completed"
        assert session.peer_fraction > 0.5
        assert session.edge_bytes + session.peer_bytes == obj.size

    def test_per_uploader_bytes_sum_to_peer_bytes(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        session = downloader.start_download(obj)
        system.run(until=8 * HOUR)
        assert sum(session.per_uploader_bytes.values()) == session.peer_bytes

    def test_uploaders_are_seeders(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        session = downloader.start_download(obj)
        system.run(until=8 * HOUR)
        seeder_guids = {s.guid for s in seeders}
        assert set(session.per_uploader_bytes) <= seeder_guids

    def test_peers_initially_returned_recorded(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        session = downloader.start_download(obj)
        system.run(until=8 * HOUR)
        assert session.peers_initially_returned >= 1

    def test_completed_download_registers_for_upload(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        downloader.start_download(obj)
        system.run(until=8 * HOUR)
        assert downloader.has_complete(obj.cid)
        regs = [r for r in system.logstore.registrations
                if r.guid == downloader.guid]
        assert len(regs) == 1

    def test_p2p_disabled_globally_means_edge_only(self, big_object):
        config = SystemConfig(p2p_globally_enabled=False)
        system = NetSessionSystem(config, seed=7)
        seeders, downloader = make_swarm_scene(system, big_object)
        session = downloader.start_download(big_object)
        system.run(until=8 * HOUR)
        assert session.state == "completed"
        assert session.peer_bytes == 0

    def test_no_control_plane_falls_back_to_edge(self, system, big_object):
        seeders, downloader = make_swarm_scene(system, big_object)
        for cn in system.control.all_cns:
            cn.fail()
        downloader.reconnect()
        session = downloader.start_download(big_object)
        system.run(until=8 * HOUR)
        assert session.state == "completed"
        assert session.peer_bytes == 0


class TestBackstop:
    def test_edge_throttled_when_peers_deliver(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        session = downloader.start_download(obj)
        system.run(until=120.0)
        if session.state == "active" and session.peer_conns:
            assert session.edge_cap is not None

    def test_backstop_disabled_keeps_edge_uncapped(self, big_object):
        config = SystemConfig().with_client(edge_backstop_enabled=False)
        system = NetSessionSystem(config, seed=7)
        seeders, downloader = make_swarm_scene(system, big_object)
        session = downloader.start_download(big_object)
        system.run(until=300.0)
        assert session.edge_cap is None

    def test_backstop_covers_when_no_peers(self, system, big_object):
        system.publish(big_object)
        downloader = system.create_peer(uploads_enabled=True)
        downloader.boot()
        session = downloader.start_download(big_object)
        system.run(until=12 * HOUR)
        assert session.state == "completed"
        assert session.peer_bytes == 0

    def test_offload_lower_without_backstop(self, big_object):
        """The backstop policy only matters when the downlink outruns the
        swarm: build that case explicitly (fast downloader, slow seeders)."""
        from repro.net.flows import Resource
        from repro.net.links import AccessLink, mbps

        provider = big_object.provider
        huge = ContentObject("huge.bin", 2 * 1024 ** 3, provider,
                             p2p_enabled=True)

        def run_with(backstop: bool) -> tuple[float, float]:
            config = SystemConfig().with_client(edge_backstop_enabled=backstop)
            system = NetSessionSystem(config, seed=11)
            seeders, downloader = make_swarm_scene(system, huge, seeders=5)
            downloader.link = AccessLink(
                downlink=Resource("fast/down", mbps(100.0)),
                uplink=Resource("fast/up", mbps(10.0)), tier="fiber")
            for i, seeder in enumerate(seeders):
                seeder.link = AccessLink(
                    downlink=Resource(f"s{i}/down", mbps(8.0)),
                    uplink=Resource(f"s{i}/up", mbps(1.0)), tier="dsl")
            session = downloader.start_download(huge)
            system.run(until=12 * HOUR)
            assert session.state == "completed"
            return session.peer_fraction, session.ended_at - session.started_at

        eff_on, dur_on = run_with(True)
        eff_off, dur_off = run_with(False)
        # Throttling the edge trades speed for offload.
        assert eff_on > eff_off
        assert dur_on > dur_off


class TestPauseResume:
    def test_pause_stops_progress_resume_completes(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        session = downloader.start_download(obj)
        system.run(until=30.0)
        session.pause()
        frozen = session.progress
        system.run(until=system.sim.now + HOUR)
        assert session.progress == pytest.approx(frozen, abs=0.01)
        session.resume()
        system.run(until=system.sim.now + 8 * HOUR)
        assert session.state == "completed"

    def test_progress_preserved_across_offline(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        session = downloader.start_download(obj)
        system.run(until=30.0)
        downloader.go_offline()
        assert session.state == "paused"
        progress = session.progress
        downloader.go_online()
        assert session.state == "active"
        system.run(until=system.sim.now + 8 * HOUR)
        assert session.state == "completed"
        assert session.progress >= progress

    def test_abort_is_terminal(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        session = downloader.start_download(obj)
        system.run(until=30.0)
        session.abort()
        assert session.state == "aborted"
        session.resume()
        assert session.state == "aborted"
        recs = [r for r in system.logstore.downloads
                if r.guid == downloader.guid]
        assert recs[0].outcome == "aborted"

    def test_bytes_to_date_reported_on_abort(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        session = downloader.start_download(obj)
        system.run(until=60.0)
        session.abort()
        rec = [r for r in system.logstore.downloads
               if r.guid == downloader.guid][0]
        assert 0 <= rec.total_bytes < obj.size


class TestChurn:
    def test_uploader_going_offline_does_not_stall_download(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        session = downloader.start_download(obj)
        system.run(until=45.0)
        for seeder in seeders:
            seeder.go_offline()
        system.run(until=system.sim.now + 12 * HOUR)
        assert session.state == "completed"

    def test_download_survives_cn_failure(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        session = downloader.start_download(obj)
        system.run(until=30.0)
        system.control.fail_cn(downloader.cn)
        system.run(until=system.sim.now + 12 * HOUR)
        assert session.state == "completed"


class TestIntegrity:
    def test_corrupting_uploader_does_not_poison_download(self, system,
                                                          big_object):
        seeders, downloader = make_swarm_scene(system, big_object, seeders=8)
        for s in seeders:
            s.piece_corruption_prob = 0.3
        session = downloader.start_download(big_object)
        system.run(until=12 * HOUR)
        # All pieces eventually verified; corruption was detected and retried.
        if session.state == "completed":
            assert session.corrupted_bytes > 0
            assert len(session.received) == big_object.num_pieces
        else:
            assert session.failure_class == "system"

    def test_all_corrupt_swarm_fails_with_system_cause(self, big_object):
        config = SystemConfig().with_client(
            max_corrupted_pieces=5, conn_corruption_ban=1000)
        system = NetSessionSystem(config, seed=7)
        seeders, downloader = make_swarm_scene(system, big_object, seeders=10)
        for s in seeders:
            s.piece_corruption_prob = 1.0
        # Edge trickles so peers carry (and corrupt) most pieces.
        session = downloader.start_download(big_object)
        system.run(until=12 * HOUR)
        if session.state == "failed":
            assert session.failure_class == "system"
            rec = [r for r in system.logstore.downloads
                   if r.guid == downloader.guid][0]
            assert rec.failure_class == "system"

    def test_corrupt_connection_gets_banned(self, system, big_object):
        seeders, downloader = make_swarm_scene(system, big_object, seeders=4)
        bad = seeders[0]
        bad.piece_corruption_prob = 1.0
        session = downloader.start_download(big_object)
        system.run(until=12 * HOUR)
        assert session.state == "completed"
        # The corruptor contributed nothing useful.
        assert session.per_uploader_bytes.get(bad.guid, 0) == 0


class TestCorruptionDefense:
    """Unit-level checks on the session's anti-corruption bookkeeping."""

    def _session(self, system, obj, peer=None):
        from repro.core.swarm import DownloadSession
        if peer is None:
            peer = system.create_peer()
        session = DownloadSession(system, peer, obj)
        session.state = "active"
        return session

    def test_ban_triggers_exactly_at_threshold(self, system, big_object):
        session = self._session(system, big_object)
        ban = system.config.client.conn_corruption_ban
        session.note_corruption("g", ban - 1)
        assert "g" not in session.banned_uploaders
        assert system.defense.uploader_bans == 0
        session.note_corruption("g", 1)
        assert "g" in session.banned_uploaders
        assert system.defense.uploader_bans == 1
        # Further corruption never double-counts the ban.
        session.note_corruption("g", 5)
        assert system.defense.uploader_bans == 1

    def test_ban_aggregates_across_connections(self, system, big_object):
        # The ban-evasion fix: each connection sees only one corrupt piece
        # (below conn_corruption_ban), but the session-level aggregate bans.
        from repro.core.swarm import PeerConnection
        session = self._session(system, big_object)
        bad = system.create_peer(uploads_enabled=True)
        bad.piece_corruption_prob = 1.0
        conns = [PeerConnection(session, bad) for _ in range(2)]
        for conn, piece in zip(conns, (0, 1)):
            conn._verify_and_deliver([piece])
            assert conn.corrupted_pieces == 1
        assert bad.guid in session.banned_uploaders
        assert session.corrupt_by_uploader[bad.guid] == 2
        assert session.corrupted_piece_count == 2
        assert sorted(session.piece_pool) == [0, 1]  # both requeued
        assert session.peer_bytes == 0

    def test_requeue_filters_received_and_preserves_order(self, system,
                                                          big_object):
        session = self._session(system, big_object)
        session.piece_pool = [0, 1]
        session.received = {3}
        session.requeue_pieces([5, 3, 7])
        assert session.piece_pool == [0, 1, 5, 7]
        # Requeueing is idempotent with respect to delivered pieces.
        session.received.add(5)
        session.requeue_pieces([5])
        assert session.piece_pool == [0, 1, 5, 7]

    def _mid_chunk_stop(self, system, big_object, corruption_prob):
        """Abort a 2-piece peer chunk at 1.5 pieces transferred."""
        from repro.core.content import PIECE_SIZE
        from repro.core.swarm import Chunk, PeerConnection
        session = self._session(system, big_object)
        uploader = system.create_peer(uploads_enabled=True)
        uploader.piece_corruption_prob = corruption_prob
        conn = PeerConnection(session, uploader)
        session.peer_conns.append(conn)
        conn.chunk = Chunk([0, 1])
        # Flow over the uplink alone: the sole flow runs at link capacity,
        # so the stop time below lands deterministically mid-piece-1.
        conn.flow = system.flows.start_flow(
            [uploader.link.uplink], 2 * PIECE_SIZE,
            on_complete=conn._on_chunk_done, meta=conn,
        )
        uploader.upload_flows.add(conn.flow)
        system.run(until=1.5 * PIECE_SIZE / uploader.link.up_bps)
        conn.stop(credit_partial=True)
        return session, uploader

    def test_credit_partial_delivers_completed_piece(self, system, big_object):
        from repro.core.content import PIECE_SIZE
        session, uploader = self._mid_chunk_stop(system, big_object, 0.0)
        assert session.received == {0}
        assert session.peer_bytes == PIECE_SIZE
        assert session.per_uploader_bytes[uploader.guid] == PIECE_SIZE
        assert session.piece_pool == [1]  # the half-transferred piece
        assert session.corrupted_piece_count == 0

    def test_credit_partial_discards_corrupt_completed_piece(self, system,
                                                             big_object):
        session, uploader = self._mid_chunk_stop(system, big_object, 1.0)
        # Piece 0 transferred whole but failed the hash check: it is
        # discarded, attributed, and requeued along with unfinished piece 1.
        assert session.received == set()
        assert session.peer_bytes == 0
        assert session.corrupted_piece_count == 1
        assert session.corrupt_by_uploader[uploader.guid] == 1
        assert sorted(session.piece_pool) == [0, 1]
        assert system.defense.corrupted_pieces == 1


class TestEndgameSteal:
    """The endgame steal ranks peer chunks by their ETA as of now."""

    def test_steal_ranks_by_live_eta(self, system, big_object):
        from repro.core.swarm import (
            Chunk, DownloadSession, EdgeConnection, PeerConnection,
        )
        from repro.net.flows import Resource
        peer = system.create_peer()
        session = DownloadSession(system, peer, big_object)
        session.state = "active"
        session.edge_conn = EdgeConnection(
            session, system.edge.server_for(peer.network_region))
        rate = peer.link.down_bps / 100

        def connect(pieces, seconds):
            uploader = system.create_peer(uploads_enabled=True)
            conn = PeerConnection(session, uploader)
            session.peer_conns.append(conn)
            conn.chunk = Chunk(pieces)
            conn.flow = system.flows.start_flow(
                [Resource(f"up{pieces[0]}", rate)], seconds * rate,
                on_complete=conn._on_chunk_done, meta=conn)
            return conn

        # ``nearly_done`` started 100 s of work 90 s ago and no settle has
        # touched it since; ``fresh`` just started 50 s of work.
        nearly_done = connect([0, 1], 100.0)
        system.run(until=90.0)
        fresh = connect([2, 3], 50.0)
        now = system.sim.now
        stale = {c: c.flow.remaining / rate for c in (nearly_done, fresh)}
        live = {c: c.flow.remaining_at(now) / rate for c in (nearly_done, fresh)}
        assert stale[nearly_done] > stale[fresh]
        assert live[nearly_done] < live[fresh]

        session.maybe_steal_for_edge()
        assert fresh.closed and not nearly_done.closed
        assert session.edge_conn.chunk.pieces == [2, 3]


class TestAccountingIntegration:
    def test_honest_reports_accepted(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        downloader.start_download(obj)
        system.run(until=8 * HOUR)
        assert len(system.accounting.accepted) == 1
        assert system.accounting.rejected == []

    def test_attacker_report_rejected(self, swarm_scene):
        system, obj, seeders, downloader = swarm_scene
        downloader.accounting_attacker = True
        downloader.start_download(obj)
        system.run(until=8 * HOUR)
        assert len(system.accounting.rejected) == 1
        # The download record still exists (logs vs billing are separate).
        assert any(r.guid == downloader.guid
                   for r in system.logstore.downloads)


class TestBlackoutPromotion:
    """Downloads started while the control plane is down must regain peer
    sources after recovery (§3.8) — they used to stay edge-only forever."""

    def _blackout_scene(self, seed=7):
        from repro.core import ContentProvider

        system = NetSessionSystem(seed=seed)
        provider = ContentProvider(cp_code=9001, name="BlackoutCo")
        obj = ContentObject("blk.bin", 600 * 1024 * 1024, provider, p2p_enabled=True)
        seeders, downloader = make_swarm_scene(system, obj)
        return system, obj, seeders, downloader

    def test_blackout_started_download_is_promoted_on_reconnect(self):
        system, obj, seeders, downloader = self._blackout_scene()
        system.run(until=10.0)
        system.control.blackout()
        session = downloader.start_download(obj)
        # edge-only from byte one: the login retries are still failing
        system.run(until=200.0)
        assert session.state == "active"
        assert session.peer_bytes == 0
        assert downloader.channel.times_degraded == 1

        # restore with scheduled reconnects (the §3.8 rate-limited path):
        # seeders re-register and the degraded downloader is promoted
        system.control.restore(peers=list(system.all_peers))
        system.run(until=12 * HOUR)
        assert session.state == "completed"
        assert session.peer_bytes > 0
        assert system.channel_stats.sessions_promoted >= 1

    def test_blackout_started_download_recovers_via_probes_alone(self):
        # self recovery: nobody schedules reconnects; the breaker probes
        # must bring the peer back and the promoted session must re-query
        # until the repopulating directory has candidates.
        system, obj, seeders, downloader = self._blackout_scene()
        system.run(until=10.0)
        system.control.blackout()
        session = downloader.start_download(obj)
        system.run(until=200.0)
        assert session.peer_bytes == 0

        restore_t = system.sim.now
        system.control.restore()  # no peers: probe-driven recovery only
        # seeders have not noticed anything; make a couple of them
        # re-register the way production does (RE-ADD via their refresh)
        for seeder in seeders[:4]:
            seeder.channel.refresh_registrations()
        system.run(until=12 * HOUR)
        probe = system.config.channel.probe_interval
        assert downloader.channel.last_recovered_at is not None
        assert downloader.channel.last_recovered_at - restore_t <= 2 * probe
        assert session.state == "completed"
        assert session.peer_bytes > 0

    def test_momentary_cn_loss_does_not_strand_session(self):
        # the CN dies an instant before the download starts; the session
        # must attach peer sourcing once the relogin lands, without any
        # breaker trip at all.
        system, obj, seeders, downloader = self._blackout_scene()
        system.run(until=10.0)
        system.control.fail_cn(downloader.cn)
        session = downloader.start_download(obj)
        system.run(until=8 * HOUR)
        assert session.state == "completed"
        assert session.peer_bytes > 0
        assert downloader.channel.times_degraded == 0
