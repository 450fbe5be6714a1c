"""Video streaming over NetSession (paper §3.4's minor delivery mode).

"NetSession also supports video streaming, but it currently does not serve
much video traffic because of the requirement to install client software."

Streaming reuses the hybrid download engine unchanged — the work pool is
consumed front-to-back, which approximates the sequential fetch order a
player needs — and adds a playback model on top: the player starts once an
initial buffer is filled, consumes bytes at the video bitrate, and stalls
(rebuffers) when playback catches up with the contiguous downloaded prefix.

QoE metrics exposed: startup delay, rebuffer count, total stall time — the
quantities a LiveSky-style streaming study (paper §7) would measure.

Cost model (DESIGN.md §10): the playback clock is a
:class:`~repro.net.sim.Clock` ticking every ``playback_tick_s`` only while
a tick can change something beyond *when* playout ends: the ``active``
transfer (each tick rebalances peer caps and may steal the head piece) and
a paused stream still playing out its buffer.  It is suspended through two
idle phases.  **Downloaded and playing:** the first tick that finds the
transfer completed replays the remaining ticks' float additions and
schedules one playout-end event at the last tick's instant; reads of the
playhead fold in the ticks now due (``Clock.catch_up``), and a skip
re-plans the end.  **Paused and not playing:** nothing is delivered, so
every tick would find the stream not ready; ``resume`` wakes the clock on
the first grid instant not yet due.  Either way the trace is the one the
fixed-period clock gives.

A tick must not cost O(pieces).  The contiguous prefix is tracked by a
lazy in-order cursor that only moves forward — valid because
``DownloadSession.received`` only grows and has exactly one writer
(``deliver_pieces``, add-only).  Each piece is visited once per session; a
steady-state tick is a set probe plus arithmetic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.content import ContentObject
from repro.core.swarm import Chunk, DownloadSession, EdgeConnection
from repro.net.sim import Clock, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.peer import PeerNode
    from repro.core.system import NetSessionSystem

__all__ = ["StreamingSession", "start_streaming"]

#: Peer connections fetch at most this many pieces per batch in a stream —
#: small batches keep the in-order frontier moving even on slow uplinks.
PEER_BATCH_PIECES = 3
#: The infrastructure connection also uses bounded batches while streaming:
#: pieces are only credited when a batch completes, so the playback prefix
#: needs frequent, small deliveries.
EDGE_BATCH_PIECES = 4
#: The next this-many in-order pieces are reserved for the infrastructure —
#: peers prefetch beyond the window, so a slow uplink can never hold the
#: playback frontier (how production p2p video players split urgent vs
#: prefetch segments).
URGENT_WINDOW_PIECES = 4
#: The player hands the head piece to the infrastructure when a peer's ETA
#: for it exceeds this many seconds (or a quarter of the buffer, whichever
#: is larger) — the frontier is too precious to wait on a slow uplink.
URGENCY_ETA_FLOOR = 5.0


class StreamingSession(DownloadSession):
    """A download with an attached playback process."""

    def __init__(
        self,
        system: "NetSessionSystem",
        peer: "PeerNode",
        obj: ContentObject,
        *,
        bitrate: float,
        startup_buffer_s: float = 10.0,
        rebuffer_resume_s: float = 5.0,
        playback_tick_s: float = 1.0,
    ):
        """``bitrate`` is the video's consumption rate in *bytes* per second."""
        # Before the base class draws from the system RNG: a rejected
        # session leaves no trace.
        for name, value in (("bitrate", bitrate),
                            ("startup_buffer_s", startup_buffer_s),
                            ("rebuffer_resume_s", rebuffer_resume_s),
                            ("playback_tick_s", playback_tick_s)):
            if not 0 < value < float("inf"):
                raise ValueError(f"{name} must be in (0, inf), got {value!r}")
        super().__init__(system, peer, obj)
        self.bitrate = bitrate
        self.startup_buffer_s = startup_buffer_s
        self.rebuffer_resume_s = rebuffer_resume_s
        self.playback_tick_s = playback_tick_s

        self.playing = False
        self.playback_started_at: Optional[float] = None
        self._played = 0.0
        self.rebuffer_events = 0
        self.rebuffer_time = 0.0
        self.playback_finished_at: Optional[float] = None
        self._stall_since: Optional[float] = None
        #: The playback clock (None until ``start`` arms it).
        self._clock: Optional[Clock] = None
        #: A collapsed playout's end event; its suspended clock's cursor is
        #: the next tick not yet folded into ``_played``.
        self._playout_end: Optional[Event] = None
        # In-order cursor (see contiguous_bytes): pieces [0, _prefix_pieces)
        # are all in ``received`` and total _prefix_bytes.
        self._prefix_pieces = 0
        self._prefix_bytes = 0

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Begin the transfer and arm the playback clock."""
        super().start()
        if self.state == "active":
            self._clock = self.system.sim.every(
                self.playback_tick_s, self._playback_tick
            )
            self.system.vod.streams_started += 1

    def pause(self) -> None:
        """Pause the transfer; a stream that is not playing stops ticking."""
        if self.state != "active":
            return
        super().pause()
        self._idle_clock()

    def resume(self) -> None:
        """Resume the transfer and wake a suspended clock on its grid."""
        super().resume()
        if self.state == "active":
            self._clock.wake()

    # -------------------------------------------------- in-order scheduling

    def take_chunk(self, conn) -> Optional[Chunk]:
        """Hand out work in play order with an edge-reserved urgent window.

        The infrastructure serves the pool head (the pieces the player
        needs next) in small batches — small because pieces are only
        credited when a batch completes.  Peers prefetch *beyond* the
        urgent window, so a slow uplink can never stall the frontier.
        """
        if not self.piece_pool:
            return None
        if isinstance(conn, EdgeConnection):
            thin = (self.playback_started_at is None
                    or self.buffered_seconds() < self.startup_buffer_s)
            limit = 2 if thin else EDGE_BATCH_PIECES
            batch, self.piece_pool = (self.piece_pool[:limit],
                                      self.piece_pool[limit:])
            return Chunk(batch)
        # End-of-file tail shrink: with fewer than 2x the urgent window
        # left, a full-size reservation would return None to every peer and
        # starve the swarm for the whole tail — the edge would serve the
        # end of each stream alone.  Shrink the reserved window to at most
        # half the remaining pool so peers keep working the tail (the edge
        # can still steal the head back via the urgency path).
        window = min(URGENT_WINDOW_PIECES, len(self.piece_pool) // 2)
        if len(self.piece_pool) <= window:
            return None  # tail is the edge's job
        batch = self.piece_pool[window:window + PEER_BATCH_PIECES]
        del self.piece_pool[window:window + PEER_BATCH_PIECES]
        return Chunk(batch)

    def requeue_pieces(self, pieces: list[int]) -> None:
        """Requeue in play order: returned pieces go to the pool *front*."""
        todo = sorted(p for p in pieces if p not in self.received)
        if todo:
            self.piece_pool[:0] = todo
            # Keep the whole pool in play order (cheap: pools are small).
            self.piece_pool.sort()

    def _backstop_tick(self) -> None:
        """Streaming-aware backstop: protect the buffer before offloading.

        While the buffer is thin, the edge connection runs unthrottled so
        startup and recovery are fast; once the buffer is comfortable the
        normal offload policy applies.
        """
        buffered = self.buffered_seconds()
        if buffered < 2 * self.startup_buffer_s:
            if self.state == "active" and self.edge_conn is not None:
                self.edge_conn.set_cap(None)
                self._steal_stuck_head(buffered)
            return
        super()._backstop_tick()
        # The edge alone feeds the urgent window, so it must always outrun
        # playback — never throttle it below a safety multiple of the
        # bitrate, even when the peers look plentiful.
        floor = 2.0 * self.bitrate
        if (self.state == "active" and self.edge_conn is not None
                and self.edge_cap is not None and self.edge_cap < floor):
            self.edge_conn.set_cap(floor)

    def _idle_backstop(self) -> None:
        """Keep the fixed period: ``buffered_seconds()`` drains with time."""

    def _steal_stuck_head(self, buffered: float) -> None:
        """Reassign imminent pieces to the edge when peers would stall them.

        Scans the next few missing pieces (the playback frontier); if any
        is in flight on a peer whose ETA is worse than the urgency budget,
        that connection is closed — its pieces requeue at the pool front,
        where the edge picks them up within a batch or two.  At most one
        connection is stolen per tick to avoid churn storms.  ``buffered``
        is the caller's ``buffered_seconds()``: a tick reads the buffer
        once, and nothing before the steal itself delivers a piece.
        """
        if self.state != "active" or self.edge_conn is None:
            return
        # Peer ETAs below come from live rates: settle pending mutations.
        self.system.flows.flush()
        busy = [c for c in self.peer_conns
                if not c.closed and c.chunk is not None]
        if not busy:
            return  # no peer holds a piece (an edge-fed stream): no scan
        frontier = self._frontier()
        if not frontier:
            return
        budget = max(URGENCY_ETA_FLOOR, 0.25 * buffered)
        now = self.system.sim.now
        urgent = set(frontier)
        for conn in busy:
            if urgent.isdisjoint(conn.chunk.pieces):
                continue
            rate = conn.flow.rate if conn.flow is not None and conn.flow.active else 0.0
            eta = (conn.flow.remaining_at(now) / rate) if rate > 0 else float("inf")
            if eta > budget:
                conn.close(credit_partial=True)
                if self.state == "active" and self.edge_conn is not None \
                        and not self.edge_conn.busy:
                    self.edge_conn.pull_next()
                return

    def _rebalance_for_buffer(self, buffered: float) -> None:
        """Protect head-fetch bandwidth while the buffer is thin.

        The downlink is shared max-min across all connections; with dozens
        of peer flows the urgent in-order fetch would crawl.  While the
        buffer is below the comfort level, peer flows are collectively
        capped to a minority of the downlink so the infrastructure (serving
        the playback frontier) gets the rest; once the buffer is
        comfortable the caps return to the uploaders\' normal limits.
        """
        live = [c for c in self.peer_conns
                if not c.closed and c.flow is not None and c.flow.active]
        if not live:
            return
        thin = buffered < 2 * self.startup_buffer_s
        down = self.peer.link.down_bps
        for conn in live:
            base = conn.uploader.upload_rate_cap()
            if thin:
                cap = min(base, max(1.0, 0.4 * down / len(live)))
            else:
                cap = base
            if conn.flow.cap != cap:
                self.system.flows.set_cap(conn.flow, cap)

    # -------------------------------------------------------------- playback

    def contiguous_bytes(self) -> int:
        """Bytes of the contiguous verified prefix (what a player can use).

        Amortised O(1): the cursor only moves forward over pieces that
        arrived since the last call, so a session visits each piece once
        however many ticks fire.  Contract: ``received`` only grows (one
        writer, ``DownloadSession.deliver_pieces``, add-only).
        """
        received = self.received
        while self._prefix_pieces in received:
            self._prefix_bytes += self.obj.piece_size(self._prefix_pieces)
            self._prefix_pieces += 1
        return self._prefix_bytes

    def _frontier(self) -> list[int]:
        """The next ``URGENT_WINDOW_PIECES`` missing pieces, in play order."""
        self.contiguous_bytes()  # bring the cursor up to date
        frontier: list[int] = []
        for index in range(self._prefix_pieces, self.obj.num_pieces):
            if index not in self.received:
                frontier.append(index)
                if len(frontier) >= URGENT_WINDOW_PIECES:
                    break
        return frontier

    @property
    def played_bytes(self) -> float:
        """Bytes played so far.  A collapsed playout folds in its ticks now
        due; never the last, whose end event has fired by then."""
        if self._playout_end is not None:
            budget, size = self.bitrate * self.playback_tick_s, self.obj.size
            for _ in range(self._clock.catch_up()):
                self._played += max(0.0, min(budget, size - self._played))
        return self._played

    def buffered_seconds(self) -> float:
        """Playable seconds ahead of the playhead."""
        return max(0.0, (self.contiguous_bytes() - self.played_bytes)
                   / self.bitrate)

    def _ready_to_play(self, prefix: int) -> bool:
        """Would a tick start (or resume) playback with this prefix?"""
        threshold = (self.startup_buffer_s if self.playback_started_at is None
                     else self.rebuffer_resume_s)
        return prefix - self._played >= threshold * self.bitrate or (
            prefix >= self.obj.size and self._played < self.obj.size)

    def _playback_tick(self) -> None:
        now = self.system.sim.now
        if self.state in ("failed", "aborted"):
            self._stop_clock()
            return

        prefix = self.contiguous_bytes()
        if self.state == "active":
            buffered = self.buffered_seconds()
            self._rebalance_for_buffer(buffered)
            # React to head-of-line stalls at playback-tick granularity —
            # a slow peer holding the next-to-play piece is stolen to the
            # edge before the buffer drains, not after.
            self._steal_stuck_head(buffered)
        if not self.playing:
            if self._ready_to_play(prefix):
                self.playing = True
                if self.playback_started_at is None:
                    self.playback_started_at = now
                if self._stall_since is not None:
                    stalled = now - self._stall_since
                    self.rebuffer_time += stalled
                    self.system.vod.rebuffer_seconds += stalled
                    self._stall_since = None
        else:
            # Consume one tick of video.
            budget = self.bitrate * self.playback_tick_s
            available = prefix - self._played
            self._played += max(0.0, min(budget, available))
            if self._played >= self.obj.size - 0.5:
                self._finish_playback()
                return
            if available < budget:
                # Stall mid-video: played out the prefix, now rebuffering.
                self.playing = False
                self.rebuffer_events += 1
                self.system.vod.rebuffer_events += 1
                self._stall_since = now
        self._idle_clock()

    def _finish_playback(self) -> None:
        self._played = float(self.obj.size)
        self.playback_finished_at = self.system.sim.now
        self.system.vod.playbacks_finished += 1
        self._stop_clock()

    def _stop_clock(self) -> None:
        if self._clock is not None:
            self._clock.cancel()
        if self._playout_end is not None:
            self._playout_end.cancel()
            self._playout_end = None

    # ------------------------------------------------------ idle-phase clock

    def _idle_clock(self) -> None:
        """Suspend the clock through an idle phase.  Downloaded and
        playing: collapse the playout into its end event.  Paused and not
        about to play: suspend until resume."""
        if self.state == "completed" and self.playing:
            self._clock.suspend()
            self._plan_playout_end()
        elif (self.state == "paused" and not self.playing
              and not self._ready_to_play(self.contiguous_bytes())):
            self._clock.suspend()

    def _plan_playout_end(self) -> None:
        """(Re-)schedule the playout end at the instant the last remaining
        tick would fire, replaying the tick's float additions (a tight loop:
        a collapse replays every tick left in the video)."""
        budget, size = self.bitrate * self.playback_tick_s, self.obj.size
        t, played = self._clock.next_at, self._played
        while True:
            played += max(0.0, min(budget, size - played))
            if played >= size - 0.5:
                break
            t += self.playback_tick_s
        if self._playout_end is not None:
            self._playout_end.cancel()
        self._playout_end = self.system.sim.schedule_at(t, self._finish_playback)

    # --------------------------------------------------------- viewer actions

    def skip_ahead(self, seconds: float) -> None:
        """Viewer seek: jump the playhead up to ``seconds`` of video ahead.

        Seeking past the contiguous prefix drops the player into a rebuffer
        at the new position (the in-order pool catches up naturally).  The
        playhead never lands inside the final tick of the video, so a
        seeked session still plays a last tick (a collapsed playout
        re-plans its end).
        """
        if seconds <= 0 or self.playback_finished_at is not None:
            return
        ceiling = float(self.obj.size) - self.bitrate * self.playback_tick_s
        target = min(self.played_bytes + seconds * self.bitrate, ceiling)
        if target > self._played:
            self._played = target
            if self._playout_end is not None:
                self._plan_playout_end()

    def stop_playback(self) -> None:
        """Viewer closes the player without cancelling the transfer.

        A partial watch after the download already completed: aborting the
        session would be a no-op (the state is terminal), so the playback
        clock is stopped directly and the session never counts as finished.
        """
        if self.playback_finished_at is not None:
            return
        self._played = self.played_bytes  # a collapsed playout stops here
        self.playing = False
        self._stall_since = None
        self._stop_clock()

    # --------------------------------------------------------------- metrics

    @property
    def startup_delay(self) -> Optional[float]:
        """Seconds from request to first frame; None if never started."""
        if self.playback_started_at is None:
            return None
        return self.playback_started_at - self.started_at

    def _record_extras(self) -> dict:
        """Streaming QoE fields for the CN-side download record.

        Written when the *transfer* ends; stalls can only begin while the
        transfer is live (a complete prefix never drains), so the rebuffer
        totals are final up to a stall still resolving at record time.
        ``watched_fraction`` is the playhead position at record time —
        final for aborted sessions, a lower bound for completed downloads
        whose playback is still running.
        """
        return {
            "streamed": True,
            "startup_delay": self.startup_delay,
            "rebuffer_events": self.rebuffer_events,
            "rebuffer_time": self.rebuffer_time,
            "watched_fraction": min(1.0, self.played_bytes / self.obj.size),
            "bitrate": self.bitrate,
        }

    def qoe_report(self) -> dict[str, float]:
        """The streaming QoE summary."""
        return {
            "startup_delay": self.startup_delay if self.startup_delay is not None
            else float("inf"),
            "rebuffer_events": float(self.rebuffer_events),
            "rebuffer_time": self.rebuffer_time,
            "peer_fraction": self.peer_fraction,
            "finished": float(self.playback_finished_at is not None),
        }


def start_streaming(
    peer: "PeerNode",
    obj: ContentObject,
    *,
    bitrate: float,
    startup_buffer_s: float = 10.0,
) -> StreamingSession:
    """Begin streaming ``obj`` on ``peer`` through the hybrid engine.

    Follows the same session-registration path as the Download Manager, so
    pause/resume, logging, and accounting all behave identically.
    """
    if not peer.online:
        raise RuntimeError(f"peer {peer.guid[:8]} is offline")
    if obj.cid in peer.sessions:
        session = peer.sessions[obj.cid]
        if isinstance(session, StreamingSession):
            return session
        raise RuntimeError(f"object {obj.cid} already downloading as a file")
    session = StreamingSession(
        peer.system, peer, obj,
        bitrate=bitrate, startup_buffer_s=startup_buffer_s,
    )
    peer.sessions[obj.cid] = session
    session.start()
    return session
