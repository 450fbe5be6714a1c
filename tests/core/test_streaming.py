"""Tests for the streaming extension."""

from __future__ import annotations

import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ContentObject, ContentProvider, NetSessionSystem
from repro.core.content import PIECE_SIZE
from repro.core.streaming import (
    URGENT_WINDOW_PIECES, StreamingSession, start_streaming,
)
from tests.conftest import make_swarm_scene

MBIT = 1e6 / 8
MB = 1024 * 1024
HOUR = 3600.0


@pytest.fixture
def video(provider):
    # ~11 minutes of 3 Mbit/s video.
    return ContentObject("show.mp4", 250 * MB, provider, p2p_enabled=True)


class TestValidation:
    def test_invalid_bitrate_rejected(self, system, video):
        peer = system.create_peer()
        with pytest.raises(ValueError):
            StreamingSession(system, peer, video, bitrate=0.0)

    def test_offline_peer_rejected(self, system, video):
        system.publish(video)
        peer = system.create_peer()
        with pytest.raises(RuntimeError):
            start_streaming(peer, video, bitrate=3 * MBIT)

    def test_duplicate_request_returns_same_session(self, system, video):
        system.publish(video)
        peer = system.create_peer()
        peer.boot()
        a = start_streaming(peer, video, bitrate=3 * MBIT)
        b = start_streaming(peer, video, bitrate=3 * MBIT)
        assert a is b

    def test_conflicts_with_plain_download(self, system, video):
        system.publish(video)
        peer = system.create_peer()
        peer.boot()
        peer.start_download(video)
        with pytest.raises(RuntimeError):
            start_streaming(peer, video, bitrate=3 * MBIT)


class TestPlayback:
    def test_stream_plays_to_completion(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=3 * MBIT)
        system.run(until=4 * HOUR)
        report = session.qoe_report()
        assert report["finished"] == 1.0
        assert session.played_bytes == video.size
        assert session.state == "completed"

    def test_startup_delay_reflects_buffer(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=3 * MBIT,
                                  startup_buffer_s=10.0)
        system.run(until=4 * HOUR)
        delay = session.startup_delay
        assert delay is not None
        # Buffer fill at >= line rate: startup within tens of seconds.
        assert 0.0 < delay < 120.0

    def test_fast_link_never_rebuffers(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        # Only rebuffer-free if the link outruns the bitrate.
        if viewer.link.down_bps * 8 < 4e6:
            pytest.skip("sampled link slower than bitrate")
        session = start_streaming(viewer, video, bitrate=3 * MBIT)
        system.run(until=4 * HOUR)
        assert session.rebuffer_events == 0

    def test_undersized_link_rebuffers(self, system, provider):
        from repro.net.flows import Resource
        from repro.net.links import AccessLink, mbps

        video = ContentObject("hd.mp4", 120 * MB, provider)
        system.publish(video)
        viewer = system.create_peer()
        viewer.link = AccessLink(Resource("v/d", mbps(2.0)),
                                 Resource("v/u", mbps(0.5)), "dsl")
        viewer.boot()
        # 8 Mbit/s video over a 2 Mbit/s link must stall.
        session = start_streaming(viewer, video, bitrate=8 * MBIT)
        system.run(until=6 * HOUR)
        assert session.rebuffer_events > 0
        assert session.rebuffer_time > 0.0

    def test_stream_gets_peer_assist(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=3 * MBIT)
        system.run(until=4 * HOUR)
        assert session.peer_fraction > 0.3

    def test_aborted_stream_stops_clock(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=3 * MBIT)
        system.run(until=10.0)
        session.abort()
        events_before = session.rebuffer_events
        system.run(until=HOUR)
        assert session.rebuffer_events == events_before
        assert session.playback_finished_at is None

    def test_contiguous_prefix_accounting(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=3 * MBIT)
        # Simulate out-of-order receipt: holes stop the prefix.
        session.received = {0, 1, 3}
        expected = video.piece_size(0) + video.piece_size(1)
        assert session.contiguous_bytes() == expected


class TestTailScheduling:
    """Regression: end-of-file urgency starvation.

    The urgent window used to be a fixed-size head reservation; once the
    pool shrank to the window size every peer connection was refused work
    (``take_chunk`` returned None) and the edge served the whole tail
    alone.  The window now shrinks with the pool.
    """

    def _session_with_pool(self, system, video, pool):
        viewer = system.create_peer()
        viewer.boot()
        session = StreamingSession(system, viewer, video, bitrate=3 * MBIT)
        session.piece_pool = list(pool)
        return session

    def test_peers_still_get_work_in_the_tail(self, system, video):
        system.publish(video)
        session = self._session_with_pool(system, video, [10, 11, 12, 13])
        chunk = session.take_chunk(object())  # any non-edge connection
        assert chunk is not None, "tail-sized pool starved the peer"
        # The shrunken window still reserves the head for the edge.
        assert 10 not in chunk.pieces
        assert 10 in session.piece_pool

    def test_full_pool_keeps_the_full_urgent_window(self, system, video):
        from repro.core.streaming import URGENT_WINDOW_PIECES

        system.publish(video)
        pool = list(range(20))
        session = self._session_with_pool(system, video, pool)
        chunk = session.take_chunk(object())
        assert chunk is not None
        assert min(chunk.pieces) == URGENT_WINDOW_PIECES

    def test_last_piece_is_still_reachable(self, system, video):
        system.publish(video)
        session = self._session_with_pool(system, video, [99])
        chunk = session.take_chunk(object())
        assert chunk is not None and list(chunk.pieces) == [99]


class TestViewerActions:
    def test_skip_ahead_moves_the_playhead(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=3 * MBIT)
        system.run(until=120.0)
        before = session.played_bytes
        session.skip_ahead(60.0)
        assert session.played_bytes >= before
        system.run(until=4 * HOUR)
        assert session.qoe_report()["finished"] == 1.0

    def test_skip_ahead_never_lands_on_the_end(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=3 * MBIT)
        system.run(until=60.0)
        session.skip_ahead(1e9)
        assert session.played_bytes < video.size
        system.run(until=4 * HOUR)
        assert session.qoe_report()["finished"] == 1.0

    def test_stop_playback_freezes_the_session(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=3 * MBIT)
        system.run(until=120.0)
        session.stop_playback()
        played = session.played_bytes
        system.run(until=4 * HOUR)
        assert session.played_bytes == played
        assert session.playback_finished_at is None


class TestVodCounters:
    def test_system_counters_track_sessions(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        start_streaming(viewer, video, bitrate=3 * MBIT)
        assert system.vod.streams_started == 1
        system.run(until=4 * HOUR)
        stats = system.stats().vod
        assert stats.streams_started == 1
        assert stats.playbacks_finished == 1

    def test_streamed_download_record_carries_qoe(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=3 * MBIT)
        system.run(until=4 * HOUR)
        recs = [r for r in system.logstore.downloads if r.streamed]
        assert len(recs) == 1
        rec = recs[0]
        assert rec.bitrate == session.bitrate
        assert rec.startup_delay == session.startup_delay
        plain = [r for r in system.logstore.downloads if not r.streamed]
        for r in plain:
            assert r.bitrate == 0.0 and r.startup_delay is None


class TestStreamingResilience:
    def test_stream_survives_seeder_churn(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=3 * MBIT)
        system.run(until=30.0)
        for s in seeders[::2]:
            s.go_offline()
        system.run(until=4 * HOUR)
        assert session.qoe_report()["finished"] == 1.0

    def test_stream_without_peers_is_edge_fed(self, system, video):
        system.publish(video)
        viewer = system.create_peer(uploads_enabled=True)
        viewer.boot()
        session = start_streaming(viewer, video, bitrate=2 * MBIT)
        system.run(until=4 * HOUR)
        report = session.qoe_report()
        assert session.peer_bytes == 0
        if viewer.link.down_bps * 8 > 3e6:
            assert report["finished"] == 1.0

    def test_buffered_seconds_bounded_by_prefix(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=3 * MBIT)
        system.run(until=60.0)
        assert session.buffered_seconds() * 3 * MBIT <= (
            session.contiguous_bytes() + 1.0)

    def test_qoe_report_fields(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=3 * MBIT)
        system.run(until=4 * HOUR)
        report = session.qoe_report()
        assert set(report) == {"startup_delay", "rebuffer_events",
                               "rebuffer_time", "peer_fraction", "finished"}


# ------------------------------------------------- in-order prefix cursor


def _scan_prefix_bytes(session) -> int:
    """The full-prefix scan the cursor replaced — kept here as the oracle."""
    total = 0
    for index in range(session.obj.num_pieces):
        if index not in session.received:
            break
        total += session.obj.piece_size(index)
    return total


def _scan_frontier(session) -> list[int]:
    missing = [i for i in range(session.obj.num_pieces)
               if i not in session.received]
    return missing[:URGENT_WINDOW_PIECES]


@st.composite
def _deliveries(draw):
    """(object size, batches of piece indexes, per-batch probe flags).

    Sizes cover a one-piece object and both an exact and a short last
    piece; the batches together cover every piece at least once, in a
    random order, with duplicates within and across batches.
    """
    num_pieces = draw(st.integers(1, 24))
    short_tail = draw(st.sampled_from([0, 1, PIECE_SIZE // 3, PIECE_SIZE - 1]))
    size = num_pieces * PIECE_SIZE - short_tail
    indexes = st.integers(0, num_pieces - 1)
    order = draw(st.permutations(range(num_pieces)))
    order = list(order) + draw(st.lists(indexes, max_size=num_pieces))
    batches = []
    while order:
        k = draw(st.integers(1, 5))
        batch, order = order[:k], order[k:]
        batches.append(batch + draw(st.lists(indexes, max_size=2)))
    probes = draw(st.lists(st.booleans(), min_size=len(batches),
                           max_size=len(batches)))
    return size, batches, probes


class TestPrefixCursor:
    @settings(max_examples=60, deadline=None)
    @given(_deliveries(), st.floats(0.0, 1.0))
    def test_cursor_matches_a_from_scratch_scan(self, case, played):
        size, batches, probes = case
        system = NetSessionSystem(seed=7)
        provider = ContentProvider(cp_code=9001, name="TestCo",
                                   upload_default_rate=1.0)
        video = ContentObject("clip.mp4", size, provider, p2p_enabled=True)
        system.publish(video)
        viewer = system.create_peer()
        viewer.boot()
        session = start_streaming(viewer, video, bitrate=1 * MBIT)
        assert session.contiguous_bytes() == 0
        for batch, probe in zip(batches, probes):
            session.deliver_pieces(batch, None, 0)
            if not probe:
                continue  # the cursor is lazy: skipped reads must not matter
            prefix = _scan_prefix_bytes(session)
            session.played_bytes = played * prefix
            assert session.contiguous_bytes() == prefix
            assert session.buffered_seconds() == max(
                0.0, (prefix - session.played_bytes) / session.bitrate)
            assert session._frontier() == _scan_frontier(session)
        assert session.state == "completed"
        assert session.contiguous_bytes() == video.size
        assert session._frontier() == []


class _CountingObject(ContentObject):
    """Counts ``piece_size`` calls by the name of the calling function."""

    __slots__ = ("calls",)

    def piece_size(self, index: int) -> int:
        self.calls[sys._getframe(1).f_code.co_name] += 1
        return super().piece_size(index)


class TestTickWorkBound:
    """Deterministic work bound (a count, not a stopwatch): a session visits
    each piece once however many playback ticks fire.  The per-tick scan
    made ~39k (3 Mbit/s) and ~125k (1 Mbit/s) calls here."""

    @pytest.mark.parametrize("mbit", [3, 1])
    def test_piece_visits_do_not_scale_with_ticks(self, system, provider, mbit):
        video = _CountingObject("show.mp4", 250 * MB, provider,
                                p2p_enabled=True)
        video.calls = Counter()
        seeders, viewer = make_swarm_scene(system, video)
        session = start_streaming(viewer, video, bitrate=mbit * MBIT)
        system.run(until=4 * HOUR)
        assert session.playback_finished_at is not None
        ticks = session.playback_finished_at / session.playback_tick_s
        assert ticks > 10 * video.num_pieces
        assert video.calls["contiguous_bytes"] == video.num_pieces
        # Everything else (chunk sizing, duplicate-delivery accounting) is
        # per delivered piece: ~3 calls a piece at either tick count.
        assert sum(video.calls.values()) <= 5 * video.num_pieces
