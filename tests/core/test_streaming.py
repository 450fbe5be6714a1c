"""Tests for the streaming extension."""

from __future__ import annotations

import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ContentObject, ContentProvider, NetSessionSystem
from repro.core.content import PIECE_SIZE
from repro.core.peer import CacheEntry
from repro.core.streaming import (
    URGENT_WINDOW_PIECES, StreamingSession, start_streaming,
)
from tests.conftest import make_swarm_scene
from tests.core.fixed_clock import FixedClockStreamingSession

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

    @pytest.mark.parametrize("start", [
        lambda peer, video: StreamingSession(peer.system, peer, video,
                                             bitrate=3 * MBIT, playback_tick_s=0.0),
        lambda peer, video: start_streaming(peer, video, bitrate=float("nan")),
        lambda peer, video: start_streaming(peer, video, bitrate=3 * MBIT,
                                            startup_buffer_s=float("nan")),
    ], ids=["tick-0", "nan-bitrate", "nan-buffer"])
    def test_rejected_stream_leaves_no_trace(self, system, video, start):
        # A zero tick used to fail only in ``start()``, after the transfer
        # had begun; a NaN bitrate or buffer passed an ``x <= 0`` check.
        system.publish(video)
        peer = system.create_peer()
        peer.boot()
        rng_state = system.rng.getstate()
        with pytest.raises(ValueError, match="must be in"):
            start(peer, video)
        assert peer.sessions == {}
        assert not system.flows.active_flows
        assert system.rng.getstate() == rng_state

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
            session._played = played * prefix
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
    """Deterministic work bounds (counts, not stopwatches).  A session
    visits each piece once however many playback ticks fire (the per-tick
    scan made ~39k (3 Mbit/s) and ~125k (1 Mbit/s) calls here), and the
    idle phases fire next to no clock callbacks."""

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

    def test_downloaded_stream_plays_out_in_two_callbacks(self, system, video):
        seeders, viewer = make_swarm_scene(system, video)
        session = _CallbackLog(system, viewer, video, bitrate=3 * MBIT)
        _start(session)
        system.run(until=4 * HOUR)
        assert session.state == "completed"
        assert session.playback_finished_at is not None
        # Hundreds of ticks of video were left when the transfer ended ...
        left = session.playback_finished_at - session.ended_at
        assert left > 100 * session.playback_tick_s
        # ... and they cost one collapsing tick plus the playout end.
        after = [t for t in session.fired if t >= session.ended_at]
        assert len(after) <= 2

    def test_paused_stalled_stream_does_not_tick(self, system, provider):
        from repro.net.flows import Resource
        from repro.net.links import AccessLink, mbps

        video = ContentObject("hd.mp4", 120 * MB, provider)
        system.publish(video)
        viewer = system.create_peer()
        viewer.link = AccessLink(Resource("v/d", mbps(2.0)),
                                 Resource("v/u", mbps(0.5)), "dsl")
        viewer.boot()
        session = _CallbackLog(system, viewer, video, bitrate=8 * MBIT)
        _start(session)
        while not session.rebuffer_events:
            system.run(until=system.sim.now + 1.0)
        assert not session.playing
        session.pause()
        paused_at = system.sim.now
        system.run(until=paused_at + HOUR)
        assert [t for t in session.fired if t > paused_at] == []
        session.resume()
        system.run(until=paused_at + 6 * HOUR)
        assert session.playback_finished_at is not None

    def test_vod_evening_trace_event_count(self):
        from benchmarks.perf.workloads import WORKLOADS
        from repro.runner import run_scenario_artifact

        artifact = run_scenario_artifact(WORKLOADS["vod_evening"].config(42))
        # 181 021 with a tick every second through every phase.
        assert artifact.stats.events_processed <= 60_000


class _CallbackLog(StreamingSession):
    """Logs the instant of every streaming clock callback."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fired: list[float] = []

    def _playback_tick(self) -> None:
        self.fired.append(self.system.sim.now)
        super()._playback_tick()

    def _end_playout(self) -> None:
        self.fired.append(self.system.sim.now)
        super()._end_playout()


# ----------------------------------------------- idle-phase clock vs oracle


def _grid(k: int, tick: float) -> float:
    """The ``k``-th tick of a clock armed at t=0: the chained float sum."""
    t = 0.0
    for _ in range(k):
        t += tick
    return t


def _start(session) -> None:
    """What ``start_streaming`` does, for a session of any class."""
    session.peer.sessions[session.obj.cid] = session
    session.start()


def _observe(session) -> tuple:
    """Everything a caller can read off a session, at this instant."""
    return (session.system.sim.now, session.state, session.playing,
            session.played_bytes, session.buffered_seconds(),
            session.playback_finished_at, session.rebuffer_events,
            session.rebuffer_time, sorted(session.qoe_report().items()))


def _play_script(cls, scene: dict, actions: list[tuple]) -> tuple:
    """Run one scripted stream with clock class ``cls``; return its trace.

    ``actions`` are ``(time, kind, arg, queued)``.  A queued action is
    scheduled before the stream starts, so it fires before any tick due at
    the same instant; the others run between ``system.run(until=time)``
    calls, after every event due by then.  Each action is followed by a
    read of every observable.
    """
    from repro.net.flows import Resource
    from repro.net.links import AccessLink

    system = NetSessionSystem(seed=11)
    provider = ContentProvider(cp_code=9001, name="TestCo",
                               upload_default_rate=1.0)
    video = ContentObject("clip.mp4", scene["size"], provider,
                          p2p_enabled=scene["seeders"] > 0)
    system.publish(video)
    country = system.world.by_code["DE"]
    for _ in range(scene["seeders"]):
        seeder = system.create_peer(country=country, uploads_enabled=True)
        seeder.cache[video.cid] = CacheEntry(cid=video.cid, completed_at=0.0)
        seeder.boot()
    viewer = system.create_peer(country=country)
    down = scene["down"]
    viewer.link = AccessLink(Resource("v/d", down), Resource("v/u", down / 4),
                             "dsl")
    viewer.boot()
    session = cls(system, viewer, video, bitrate=scene["bitrate"],
                  startup_buffer_s=scene["startup"],
                  rebuffer_resume_s=scene["resume_s"],
                  playback_tick_s=scene["tick"])
    seen: list[tuple] = []

    def act(kind: str, arg: float) -> None:
        if kind == "pause":
            session.pause()
        elif kind == "resume":
            session.resume()
        elif kind == "skip":
            session.skip_ahead(arg)
        elif kind == "stop":
            session.stop_playback()
        elif kind == "abort":
            session.abort()
        seen.append((kind, _observe(session)))

    for at, kind, arg, queued in actions:
        if queued:
            system.sim.schedule_at(at, lambda k=kind, a=arg: act(k, a))
    _start(session)
    for at, kind, arg, queued in sorted(
            (a for a in actions if not a[3]), key=lambda a: a[0]):
        system.run(until=at)
        act(kind, arg)
    system.run(until=scene["horizon"])
    seen.append(("end", _observe(session)))
    return (seen, [vars(r) for r in system.logstore.downloads],
            system.vod.snapshot())


_ACTIONS = ["pause", "resume", "pause", "resume", "skip", "skip", "read",
            "stop", "abort"]


@st.composite
def _scripts(draw):
    """A stream scene plus a script of viewer actions.

    The link runs from well under to well over the bitrate, so transfers
    complete mid-playback, mid-stall and before startup; a huge
    ``resume_s`` keeps a stalled stream stalled until its transfer ends.
    Action times are either anywhere or exactly on the tick grid.
    """
    tick = draw(st.sampled_from([1.0, 0.5, 0.7, 0.1]))
    pieces = draw(st.integers(1, 12))
    size = pieces * PIECE_SIZE - draw(st.sampled_from([0, PIECE_SIZE // 3]))
    duration = draw(st.floats(20.0, 200.0))
    bitrate = size / duration
    scene = {
        "size": size, "bitrate": bitrate, "tick": tick,
        "down": bitrate * draw(st.sampled_from([0.5, 0.9, 1.2, 4.0, 50.0])),
        "startup": draw(st.sampled_from([1.0, 10.0])),
        "resume_s": draw(st.sampled_from([1.0, 5.0, 1e6])),
        "seeders": draw(st.sampled_from([0, 0, 3])),
        "horizon": 8 * duration + 60.0,
    }
    last_tick = int(2 * duration / tick)
    actions = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            at = _grid(draw(st.integers(1, last_tick)), tick)
        else:
            at = draw(st.floats(0.0, 2 * duration))
        actions.append((at, draw(st.sampled_from(_ACTIONS)),
                        draw(st.floats(1.0, 60.0)), draw(st.booleans())))
    return scene, actions


class TestIdleClockOracle:
    """The event-driven idle phases against the fixed-period clock: every
    read, every record field and every ``vod`` counter is equal (``==``,
    not approximately)."""

    @settings(max_examples=120, deadline=None)
    @given(_scripts())
    def test_scripts_match_the_fixed_clock(self, case):
        scene, actions = case
        assert (_play_script(StreamingSession, scene, actions)
                == _play_script(FixedClockStreamingSession, scene, actions))


def _scene(pieces: int, duration: float, ratio: float, *, tick: float = 1.0,
           resume_s: float = 1.0) -> dict:
    """An edge-fed stream of ``duration`` seconds over a link ``ratio``
    times the bitrate."""
    size = pieces * PIECE_SIZE
    return {"size": size, "bitrate": size / duration, "tick": tick,
            "down": ratio * size / duration, "startup": 1.0,
            "resume_s": resume_s, "seeders": 0, "horizon": 8 * duration}


def _phase(session) -> str:
    """Which clock phase a production session is in."""
    if session.playback_finished_at is not None:
        return "finished"
    if session._playout_end is not None:
        return "collapsed"
    if session._clock.suspended:
        return "suspended"
    if not session._clock.pending:
        return "stopped"
    return f"{session.state}:{'playing' if session.playing else 'waiting'}"


class _PhaseProbe(StreamingSession):
    """Logs the clock phase each viewer action (and the transfer's end)
    finds, so a scripted case can show it reached the phase it names."""

    phases: list[tuple[str, str]] = []

    def _logged(self, name: str, action, *args) -> None:
        self.phases.append((name, _phase(self)))
        action(*args)

    def pause(self):
        self._logged("pause", super().pause)

    def resume(self):
        self._logged("resume", super().resume)

    def skip_ahead(self, seconds):
        self._logged("skip", super().skip_ahead, seconds)

    def stop_playback(self):
        self._logged("stop", super().stop_playback)

    def abort(self):
        self._logged("abort", super().abort)

    def _complete(self):
        self.phases.append(("complete", "playing" if self.playing
                            else "stalled"))
        super()._complete()


# Two pieces, 20 s of video at half the bitrate, fetched as one edge
# batch: a pause before t=20 credits nothing (the stream stays waiting and
# suspends); a pause at t=20 credits the first piece, which then plays out
# while paused until the tick that stalls it suspends the clock.
_STALLS = _scene(2, 20.0, 0.5)

_NAMED_SCRIPTS = {
    "resume-on-grid-queued": (
        _STALLS, [(20.0, "pause", 0, False), (40.0, "resume", 0, True)],
        ("resume", "suspended")),
    "resume-on-grid-direct": (
        _STALLS, [(20.0, "pause", 0, False), (40.0, "resume", 0, False)],
        ("resume", "suspended")),
    "resume-off-grid": (
        _STALLS, [(20.0, "pause", 0, False), (40.37, "resume", 0, False)],
        ("resume", "suspended")),
    "chained-grid-before-startup": (
        _scene(3, 60.0, 0.5, tick=0.1),
        [(_grid(3, 0.1), "pause", 0, True), (_grid(150, 0.1), "resume", 0, True),
         (_grid(160, 0.1), "pause", 0, False),
         (_grid(400, 0.1), "resume", 0, False)],
        ("resume", "suspended")),
    "stall-while-paused": (
        _scene(2, 20.0, 0.9, tick=0.5),
        [(11.5, "pause", 0, False), (12.0, "skip", 3.0, False),
         (30.0, "resume", 0, False)],
        ("skip", "paused:playing")),
    "abort-while-suspended": (
        _STALLS, [(5.0, "pause", 0, False), (30.0, "abort", 0, True)],
        ("abort", "suspended")),
    "stop-while-suspended-then-resume": (
        _STALLS, [(5.0, "pause", 0, False), (30.0, "stop", 0, False),
                  (35.0, "resume", 0, True)],
        ("stop", "suspended")),
    "skip-while-suspended": (
        _STALLS, [(5.0, "pause", 0, False), (25.0, "skip", 10.0, False),
                  (30.0, "resume", 0, False)],
        ("skip", "suspended")),
    "skip-while-stalled": (
        _STALLS, [(25.0, "skip", 5.0, True)], ("skip", "active:waiting")),
    # The piece lands within a tick of the resume, so the re-armed first
    # tick is the one that starts playback.
    "resume-then-fast-delivery": (
        _scene(1, 20.0, 40.0),
        [(0.2, "pause", 0, False), (3.3, "resume", 0, False)],
        ("resume", "suspended")),
    "completion-while-stalled": (
        _scene(4, 60.0, 0.5, resume_s=1e6), [], ("complete", "stalled")),
    "completion-mid-playback": (
        _scene(3, 60.0, 0.5), [], ("complete", "playing")),
    "skip-and-read-while-collapsed": (
        _scene(1, 20.0, 4.0),
        [(8.0, "skip", 5.0, False), (10.3, "read", 0, False),
         (11.0, "skip", 2.0, True), (12.0, "read", 0, False),
         (17.0, "read", 0, True)],
        ("skip", "collapsed")),
    "stop-while-collapsed": (
        _scene(1, 20.0, 4.0, tick=0.7),
        [(9.0, "read", 0, False), (_grid(20, 0.7), "stop", 0, True)],
        ("stop", "collapsed")),
    "abort-and-pause-while-collapsed": (
        _scene(1, 20.0, 4.0),
        [(9.0, "abort", 0, False), (10.0, "pause", 0, True)],
        ("pause", "collapsed")),
}


class TestIdleClockScripts:
    """Hand-written scripts for each idle-phase path, each shown to reach
    the phase it names, against the fixed-period clock."""

    @pytest.mark.parametrize("name", sorted(_NAMED_SCRIPTS))
    def test_script_matches_the_fixed_clock(self, name):
        scene, actions, reached = _NAMED_SCRIPTS[name]
        _PhaseProbe.phases.clear()
        probed = _play_script(_PhaseProbe, scene, actions)
        assert reached in _PhaseProbe.phases
        assert probed == _play_script(FixedClockStreamingSession, scene,
                                      actions)
