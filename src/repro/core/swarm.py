"""The download engine: parallel edge + swarming peer delivery.

This implements the behaviour of §3.3–3.4: a download always keeps a
connection to the infrastructure ("the download from the edge servers
continues in parallel ... if a peer is 'unlucky' and picks peers that are
slow or unreliable, the infrastructure can cover the difference"), while a
BitTorrent-like swarming protocol pulls verified pieces from peers.

Mechanics
---------
* Every connection (edge or peer) pulls *batches* of pieces from a shared
  pool, each batch sized to ~``CHUNK_TARGET_SECONDS`` of transfer at the
  connection's observed rate — fast sources naturally deliver more bytes
  and the endgame stays short.
* Every piece received from a peer is verified against the trusted edge
  servers' hash (a per-piece corruption draw here); corrupted pieces are
  discarded, re-queued, and counted (a connection is dropped after
  repeated corruption; the download fails with a *system* cause after too
  many bad pieces, §5.2).
* The *edge backstop policy* throttles the infrastructure connection to the
  gap between a QoS target and what the peers are currently delivering —
  this is what makes 70–80% offload possible without hurting QoS, and it is
  the knob the backstop ablation turns off.
* Peer connections are obtained by querying the control plane; additional
  queries are issued while fewer than ``TARGET_PEER_CONNECTIONS`` succeed.

States: ``active`` → (``paused`` ⇄ ``active``) → one of ``completed`` /
``failed`` / ``aborted``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.analysis.records import (
    DownloadRecord, FAILURE_OTHER, FAILURE_SYSTEM,
    OUTCOME_ABORTED, OUTCOME_COMPLETED, OUTCOME_FAILED,
)
from repro.core.content import PIECE_SIZE, ContentObject
from repro.core.edge import AuthorizationError, AuthToken, EdgeServer
from repro.core.messages import UsageReport
from repro.net.flows import Flow
from repro.net.nat import can_connect

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.peer import PeerNode
    from repro.core.system import NetSessionSystem

__all__ = ["Chunk", "DownloadSession", "PeerConnection", "EdgeConnection"]

# --- download engine constants (fixed protocol behaviour, not settings) ---
#: Work-unit sizing: a connection pulls roughly this many seconds of
#: transfer (at its estimated rate) per request batch.  Pieces (and their
#: hashes) stay at PIECE_SIZE; batching only amortises request overhead —
#: small batches keep work flowing to fast connections and keep the
#: endgame short.
CHUNK_TARGET_SECONDS = 90.0
#: Ceiling on pieces per batch (bounds memory and endgame stalls).
CHUNK_MAX_PIECES = 32
#: Pieces in a connection's first batch, before its rate is known.
CHUNK_INITIAL_PIECES = 2
#: Maximum simultaneous peer download connections per transfer.
MAX_PEER_CONNECTIONS = 30
#: Minimum successful peer connections before the client stops issuing
#: additional queries.
TARGET_PEER_CONNECTIONS = 25
#: Probability that a NAT-compatible connection attempt still succeeds
#: (transient network failures eat the rest).
CONNECT_SUCCESS_PROB = 0.92
#: Handshake delay range in seconds for a peer connection attempt.
HANDSHAKE_DELAY = (0.2, 2.0)
#: Control-plane query round-trip range in seconds.
QUERY_LATENCY = (0.05, 0.3)
#: Additional queries issued when too few peer connections succeed (§3.7:
#: "additional queries are issued until a sufficient number of peer
#: connections succeed").
MAX_EXTRA_QUERIES = 3

# --- edge backstop policy --------------------------------------------------
#: Keep at least one infrastructure connection and size it so that total
#: throughput reaches this fraction of the client's downlink; when the
#: peers alone exceed it, the edge connection idles at a trickle.  The
#: paper's Figure 4 shows peer-assisted downloads running somewhat below
#: edge-only line rate, i.e. production tolerates a QoS target below 1.0
#: in exchange for offload.
EDGE_TARGET_FRACTION = 0.6
#: Trickle rate (fraction of downlink) for the always-on edge connection.
EDGE_TRICKLE_FRACTION = 0.02
#: How often the backstop policy re-evaluates the edge cap, seconds.
BACKSTOP_INTERVAL = 15.0
#: Re-apply the edge cap only when it moves by more than this relative
#: amount (hysteresis; avoids needless rate reallocation).
BACKSTOP_HYSTERESIS = 0.15

#: Serve rate (bytes/s) below which a closing peer connection counts as a
#: slow-loris observation for the reputation defense.  Well below honest
#: back-off rates.
SLOW_RATE_FLOOR = 4096.0


class Chunk:
    """A contiguous batch of piece indices handed to one connection."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[int]):
        if not pieces:
            raise ValueError("a chunk needs at least one piece")
        self.pieces = pieces

    def size(self, obj: ContentObject) -> int:
        """Total bytes covered by this chunk."""
        return sum(obj.piece_size(i) for i in self.pieces)

    def split_at_bytes(self, obj: ContentObject, transferred: float) -> tuple[list[int], list[int]]:
        """Split into (complete pieces, remainder pieces) after a partial transfer.

        Only whole pieces count as delivered; the remainder is re-queued.
        """
        done: list[int] = []
        cum = 0.0
        for idx, piece in enumerate(self.pieces):
            cum += obj.piece_size(piece)
            if cum <= transferred + 0.5:
                done.append(piece)
            else:
                return done, self.pieces[idx:]
        return done, []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Chunk pieces={self.pieces[0]}..{self.pieces[-1]} n={len(self.pieces)}>"


class _Connection:
    """Shared machinery for edge and peer connections."""

    def __init__(self, session: "DownloadSession"):
        self.session = session
        self.flow: Optional[Flow] = None
        self.chunk: Optional[Chunk] = None
        self.closed = False
        #: EWMA of realised transfer rate, used to size the next batch.
        self.rate_estimate = 0.0

    @property
    def busy(self) -> bool:
        """Is a chunk currently being transferred on this connection?"""
        return self.chunk is not None

    def observe_rate(self, flow: Flow) -> None:
        """Fold a finished flow's average rate into the EWMA estimate."""
        rate = flow.average_rate()
        if rate <= 0:
            return
        if self.rate_estimate <= 0:
            self.rate_estimate = rate
        else:
            self.rate_estimate = 0.5 * self.rate_estimate + 0.5 * rate

    def pull_next(self) -> None:
        """Take the next chunk from the session queue, or go idle."""
        raise NotImplementedError

    def stop(self, *, credit_partial: bool) -> None:
        """Tear down the connection, optionally crediting whole pieces."""
        raise NotImplementedError


class EdgeConnection(_Connection):
    """The always-present HTTP(S) connection to an edge server (§3.3)."""

    def __init__(self, session: "DownloadSession", server: EdgeServer):
        super().__init__(session)
        self.server = server

    def pull_next(self) -> None:
        if self.closed or self.session.state != "active":
            return
        if self.rate_estimate <= 0:
            # Before any transfer, assume the edge can fill the downlink.
            self.rate_estimate = self.session.peer.link.down_bps
        chunk = self.session.take_chunk(self)
        if chunk is None:
            # Nothing queued; the backstop may later steal a stalled peer
            # chunk for us.  Stay open (the paper: there is always at least
            # one connection to the infrastructure).
            self.chunk = None
            self.session.maybe_steal_for_edge()
            return
        self.chunk = chunk
        size = chunk.size(self.session.obj)
        resources = [self.session.peer.link.downlink]
        if self.server.egress.capacity is not None:
            resources.append(self.server.egress)
        self.flow = self.session.system.flows.start_flow(
            resources, size,
            cap=self.session.edge_cap,
            on_complete=self._on_chunk_done,
            meta=self,
        )

    def _on_chunk_done(self, flow: Flow) -> None:
        chunk, self.chunk, self.flow = self.chunk, None, None
        assert chunk is not None
        self.session.wake_backstop()
        self.observe_rate(flow)
        self.server.record_served(
            self.session.peer.guid, self.session.obj.cid, int(flow.size)
        )
        self.session.deliver_pieces(chunk.pieces, source=None, nbytes=int(flow.size))
        self.pull_next()

    def set_cap(self, cap: Optional[float]) -> None:
        """Apply the backstop policy's current edge throttle."""
        self.session.edge_cap = cap
        if self.flow is not None and self.flow.active:
            self.session.system.flows.set_cap(self.flow, cap)

    def stop(self, *, credit_partial: bool) -> None:
        self.closed = True
        if self.flow is not None and self.flow.active:
            flow = self.flow
            self.session.system.flows.abort_flow(flow)
            if self.chunk is not None:
                done, rest = self.chunk.split_at_bytes(self.session.obj, flow.transferred)
                if credit_partial and done:
                    nbytes = sum(self.session.obj.piece_size(i) for i in done)
                    self.server.record_served(
                        self.session.peer.guid, self.session.obj.cid, nbytes
                    )
                    self.session.deliver_pieces(done, source=None, nbytes=nbytes)
                    if rest:
                        self.session.requeue_pieces(rest)
                else:
                    self.session.requeue_pieces(self.chunk.pieces)
        elif self.chunk is not None:
            self.session.requeue_pieces(self.chunk.pieces)
        self.flow = None
        self.chunk = None


class PeerConnection(_Connection):
    """A swarming connection from one uploading peer."""

    def __init__(self, session: "DownloadSession", uploader: "PeerNode"):
        super().__init__(session)
        self.uploader = uploader
        self.corrupted_pieces = 0

    def pull_next(self) -> None:
        if self.closed or self.session.state != "active":
            return
        if not self.uploader.online or not self.uploader.uploads_enabled:
            self.close(credit_partial=True)
            return
        if self.rate_estimate <= 0:
            self.rate_estimate = min(
                self.uploader.upload_rate_cap(),
                self.session.peer.link.down_bps,
            )
        chunk = self.session.take_chunk(self)
        if chunk is None:
            # No work left for this peer: close so the upload slot frees up.
            self.close(credit_partial=True)
            return
        self.chunk = chunk
        size = chunk.size(self.session.obj)
        downloader = self.session.peer
        if (self.uploader.lan is not None
                and self.uploader.lan is downloader.lan):
            # Same corporate site (§5.3): the transfer rides the internal
            # switch, bypassing both members\' broadband access links, and
            # the WAN upload throttle does not apply.
            resources = [self.uploader.lan.switch]
            cap = None
        else:
            resources = [self.uploader.link.uplink, downloader.link.downlink]
            cap = self.uploader.upload_rate_cap()
        self.flow = self.session.system.flows.start_flow(
            resources,
            size,
            cap=cap,
            on_complete=self._on_chunk_done,
            on_rate=self.session.wake_backstop,
            meta=self,
        )
        self.uploader.upload_flows.add(self.flow)
        self.session.wake_backstop()

    def _on_chunk_done(self, flow: Flow) -> None:
        self.uploader.upload_flows.discard(flow)
        chunk, self.chunk, self.flow = self.chunk, None, None
        assert chunk is not None
        self.session.wake_backstop()
        self.observe_rate(flow)
        self._note_if_slow(flow)
        self._verify_and_deliver(chunk.pieces)
        if self.closed:
            return
        if self.uploader.guid in self.session.banned_uploaders:
            # The session-level aggregate (not just this connection's count)
            # crossed conn_corruption_ban — see note_corruption.
            self.session.system.defense.conn_corruption_drops += 1
            self.close(credit_partial=False)
            self.session.replace_connections()
            return
        self.pull_next()

    def _note_if_slow(self, flow: Flow) -> None:
        """Record a slow-loris observation when a serve ran at a trickle."""
        rate = flow.average_rate()
        if 0 < rate < SLOW_RATE_FLOOR:
            self.session.note_slow_serve(self.uploader.guid)

    def _verify_and_deliver(self, pieces: list[int]) -> None:
        """Hash-check each received piece; deliver good ones, requeue bad."""
        rng = self.session.rng
        prob = self.uploader.piece_corruption_prob
        good: list[int] = []
        bad: list[int] = []
        for piece in pieces:
            if rng.random() < prob:
                bad.append(piece)
            else:
                good.append(piece)
        obj = self.session.obj
        if good:
            nbytes = sum(obj.piece_size(i) for i in good)
            self.session.deliver_pieces(good, source=self.uploader, nbytes=nbytes)
        if bad:
            self.corrupted_pieces += len(bad)
            nbytes = sum(obj.piece_size(i) for i in bad)
            self.session.record_corruption(len(bad), nbytes)
            self.session.requeue_pieces(bad)
            self.session.note_corruption(self.uploader.guid, len(bad))

    def handle_uploader_offline(self) -> None:
        """The uploader vanished mid-chunk (churn): credit and requeue."""
        self.close(credit_partial=True)
        self.session.replace_connections()

    def close(self, *, credit_partial: bool) -> None:
        """Close the connection, releasing the uploader's slot."""
        if self.closed:
            return
        self.stop(credit_partial=credit_partial)

    def stop(self, *, credit_partial: bool) -> None:
        self.closed = True
        self.session.wake_backstop()
        if self.flow is not None and self.flow.active:
            flow = self.flow
            self.uploader.upload_flows.discard(flow)
            self.session.system.flows.abort_flow(flow)
            self._note_if_slow(flow)
            if self.chunk is not None:
                done, rest = self.chunk.split_at_bytes(self.session.obj, flow.transferred)
                if credit_partial and done:
                    self._verify_and_deliver(done)
                    if rest:
                        self.session.requeue_pieces(rest)
                else:
                    self.session.requeue_pieces(self.chunk.pieces)
        elif self.chunk is not None:
            self.session.requeue_pieces(self.chunk.pieces)
        self.flow = None
        self.chunk = None
        self.uploader.release_upload()


class DownloadSession:
    """One download by one peer: the Download Manager's unit of work (§3.3)."""

    def __init__(self, system: "NetSessionSystem", peer: "PeerNode", obj: ContentObject):
        self.system = system
        self.peer = peer
        self.obj = obj
        self.rng: random.Random = random.Random(system.rng.getrandbits(64))

        self.state = "new"
        self.started_at = 0.0
        self.ended_at: Optional[float] = None
        self.outcome: Optional[str] = None
        self.failure_class: Optional[str] = None

        self.edge_bytes = 0
        self.peer_bytes = 0
        self.per_uploader_bytes: dict[str, int] = {}
        self.corrupted_bytes = 0
        self.corrupted_piece_count = 0
        # Per-uploader misbehavior observations (pure counting, no RNG);
        # shipped CN-side in the usage report and — via banned_uploaders —
        # closing the ban-evasion hole: corruption aggregates across *all*
        # of an uploader's connections in this session, so a corrupter
        # dropped at conn_corruption_ban stays banned across reconnects,
        # resumes, and hybrid promotions (which clear _tried_guids).
        self.corrupt_by_uploader: dict[str, int] = {}
        self.refused_by_uploader: dict[str, int] = {}
        self.slow_by_uploader: dict[str, int] = {}
        self.banned_uploaders: set[str] = set()
        self.peers_initially_returned = 0
        #: Set by the predictive-placement policy: not user demand.
        self.is_prefetch = False

        self.received: set[int] = set()
        self.piece_pool: list[int] = []
        self.edge_conn: Optional[EdgeConnection] = None
        self.peer_conns: list[PeerConnection] = []
        self.edge_cap: Optional[float] = None

        self._token: Optional[AuthToken] = None
        self._queries_done = 0
        self._tried_guids: set[str] = set()
        self._backstop_event = None
        self._pending_attempts = 0
        #: True while peer sourcing (queries + backstop) is attached; reset
        #: on teardown so resume/promotion can re-attach it.
        self._p2p_started = False
        #: Empty-response query retries granted by a post-outage promotion:
        #: right after a control-plane recovery the directory is still
        #: repopulating, so an empty answer means "ask again", not "give up".
        self._recovery_requeries = 0

    # ------------------------------------------------------------- lifecycle

    @property
    def p2p_active(self) -> bool:
        """Is peer-assisted delivery in effect for this download?"""
        return (
            self.obj.p2p_enabled
            and self.system.config.p2p_globally_enabled
        )

    def start(self) -> None:
        """Begin the download (authorize, open edge connection, query peers)."""
        if self.state != "new":
            raise RuntimeError(f"session already started (state={self.state})")
        self.state = "active"
        self.started_at = self.system.sim.now
        try:
            self._token = self.system.edge.authorize(self.peer.guid, self.obj)
        except AuthorizationError:
            self._finish(OUTCOME_FAILED, FAILURE_OTHER)
            return

        self._fill_pool()
        self._open_edge_connection()
        if self.p2p_active:
            if self.peer.cn is None or not self.peer.cn.alive:
                # CN momentarily unreachable: ask the channel to re-open the
                # control connection (failover).  If the whole control plane
                # is down, the breaker/probe machinery will promote this
                # session to hybrid once it recovers — edge-only is a mode,
                # not a life sentence (§3.8).
                self.peer.channel.ensure_connected()
            self._begin_p2p()
        # else: infrastructure-only (provider policy or global switch).

    def _begin_p2p(self) -> None:
        """Attach peer sourcing: first query plus the edge backstop."""
        if self._p2p_started or self.state != "active" or not self.p2p_active:
            return
        if self.peer.cn is None or not self.peer.cn.alive:
            return
        self._p2p_started = True
        self._schedule_query()
        self._start_backstop()

    def promote_to_hybrid(self) -> bool:
        """Re-attach peer sourcing after control-plane recovery (§3.8).

        Called by the peer's control channel when its connection is
        re-established (probe success, failover, external reconnect).  An
        edge-only in-flight download regains peer sources mid-transfer;
        returns True if the session was actually promoted.
        """
        if self._p2p_started or self.state != "active" or not self.p2p_active:
            return False
        if self.peer.cn is None or not self.peer.cn.alive:
            return False
        self._tried_guids.clear()  # pre-outage candidates are stale
        self._recovery_requeries = 3
        self._begin_p2p()
        return True

    def _fill_pool(self) -> None:
        self.piece_pool = [
            i for i in range(self.obj.num_pieces) if i not in self.received
        ]

    def _open_edge_connection(self) -> None:
        server = self.system.edge.server_for(self.peer.network_region)
        self.edge_conn = EdgeConnection(self, server)
        self.edge_conn.pull_next()

    # ------------------------------------------------------------ work queue

    def take_chunk(self, conn: "_Connection") -> Optional[Chunk]:
        """Hand a batch of pieces to ``conn``, sized to its estimated rate.

        A batch covers roughly ``CHUNK_TARGET_SECONDS`` of transfer at the
        connection's EWMA rate, clamped to ``CHUNK_MAX_PIECES`` and to at
        most half of the remaining pool — the latter keeps the endgame
        short by never letting one connection monopolise the tail.
        """
        if not self.piece_pool:
            return None
        if conn.rate_estimate > 0:
            k = int(conn.rate_estimate * CHUNK_TARGET_SECONDS / PIECE_SIZE)
        else:
            k = CHUNK_INITIAL_PIECES
        k = max(1, min(k, CHUNK_MAX_PIECES))
        if len(self.piece_pool) > 2:
            k = min(k, max(1, len(self.piece_pool) // 2))
        batch, self.piece_pool = self.piece_pool[:k], self.piece_pool[k:]
        return Chunk(batch)

    def requeue_pieces(self, pieces: list[int]) -> None:
        """Return undelivered pieces to the pool (corruption, churn, steal)."""
        todo = [p for p in pieces if p not in self.received]
        if todo:
            self.piece_pool.extend(todo)

    def deliver_pieces(self, pieces: list[int], source: Optional["PeerNode"], nbytes: int) -> None:
        """Account verified pieces from ``source`` (None = infrastructure)."""
        if self.state not in ("active", "paused"):
            return
        fresh = [p for p in pieces if p not in self.received]
        if len(fresh) != len(pieces):
            # Duplicate delivery (endgame steal overlap): count only fresh bytes.
            nbytes = sum(self.obj.piece_size(p) for p in fresh)
        self.received.update(fresh)
        if source is None:
            self.edge_bytes += nbytes
        else:
            self.peer_bytes += nbytes
            guid = source.guid
            self.per_uploader_bytes[guid] = self.per_uploader_bytes.get(guid, 0) + nbytes
        if len(self.received) >= self.obj.num_pieces:
            self._complete()

    def record_corruption(self, pieces: int, nbytes: int) -> None:
        """Count discarded corrupt pieces; fail the download past the limit."""
        self.corrupted_piece_count += pieces
        self.corrupted_bytes += nbytes
        self.system.defense.corrupted_pieces += pieces
        self.system.defense.corrupted_bytes += nbytes
        if self.corrupted_piece_count > self.system.config.client.max_corrupted_pieces:
            self.fail(FAILURE_SYSTEM)

    def note_corruption(self, guid: str, pieces: int) -> None:
        """Attribute corrupted pieces to an uploader; ban past the threshold.

        The aggregate spans every connection this session opened to the
        uploader, so the ban survives ``replace_connections()``, resumes,
        and hybrid promotions — the per-connection counter alone let a
        corrupter back in whenever ``_tried_guids`` was cleared.
        """
        total = self.corrupt_by_uploader.get(guid, 0) + pieces
        self.corrupt_by_uploader[guid] = total
        if (total >= self.system.config.client.conn_corruption_ban
                and guid not in self.banned_uploaders):
            self.banned_uploaders.add(guid)
            self.system.defense.uploader_bans += 1

    def note_refusal(self, guid: str) -> None:
        """An uploader refused the grant or had nothing to serve."""
        self.refused_by_uploader[guid] = self.refused_by_uploader.get(guid, 0) + 1

    def note_slow_serve(self, guid: str) -> None:
        """A serve from this uploader ended below the slow-rate floor."""
        self.slow_by_uploader[guid] = self.slow_by_uploader.get(guid, 0) + 1
        self.system.defense.slow_serves += 1

    # ---------------------------------------------------------- peer sourcing

    def _schedule_query(self) -> None:
        self.system.sim.schedule(self.rng.uniform(*QUERY_LATENCY), self._run_query)

    def _run_query(self) -> None:
        if self.state != "active" or not self.p2p_active:
            return
        if self._token is None:
            return
        self.peer.channel.query(
            self.obj.cid, self._token,
            frozenset(self._tried_guids),
            self._handle_query_response,
        )

    def _handle_query_response(self, response) -> None:
        if self.state != "active" or not self.p2p_active:
            return
        self._queries_done += 1
        if self._queries_done == 1:
            self.peers_initially_returned = len(response.candidates)
        if not response.candidates:
            if self._recovery_requeries > 0 and self.piece_pool:
                # Promotion raced the directory repopulating after a
                # control-plane recovery: the seeders' own re-logins and
                # RE-ADD replies are still in flight, so ask again on a
                # probe-ish cadence instead of settling for edge-only.
                self._recovery_requeries -= 1
                delay = 0.5 * self.system.config.channel.probe_interval
                self.system.sim.schedule(delay, self._run_query)
            return
        self._recovery_requeries = 0
        for cand in response.candidates:
            self._tried_guids.add(cand.guid)
            delay = self.rng.uniform(*HANDSHAKE_DELAY)
            self._pending_attempts += 1
            self.system.sim.schedule(delay, lambda g=cand.guid: self._attempt_connection(g))

    def _attempt_connection(self, guid: str) -> None:
        self._pending_attempts -= 1
        if self.state != "active":
            return
        live = sum(1 for c in self.peer_conns if not c.closed)
        if live >= min(TARGET_PEER_CONNECTIONS, MAX_PEER_CONNECTIONS):
            return
        uploader = self.system.peer_by_guid.get(guid)
        reachable = (
            uploader is not None
            and uploader.online
            and uploader is not self.peer
            and can_connect(
                self.peer.nat_profile.true_type, uploader.nat_profile.true_type
            )
            and self.rng.random() < CONNECT_SUCCESS_PROB
        )
        # The ban check sits *after* the success draw so that sessions with
        # no banned uploaders consume the exact same RNG stream as before
        # the ban-evasion fix (golden parity); a banned uploader is then
        # refused without touching its upload slots.
        ok = False
        if reachable:
            if guid in self.banned_uploaders:
                self.system.defense.ban_blocked_attempts += 1
            elif uploader.try_grant_upload(self.obj.cid):
                ok = True
            else:
                # Grant refused with the peer reachable: a free-rider, a
                # stale advertiser with nothing to serve, or simply busy.
                self.note_refusal(guid)
        if ok:
            conn = PeerConnection(self, uploader)
            self.peer_conns.append(conn)
            conn.pull_next()
        if self._pending_attempts == 0:
            self._maybe_requery()

    def _maybe_requery(self) -> None:
        """Issue another query if too few connections succeeded (§3.7)."""
        if self.state != "active" or not self.p2p_active:
            return
        live = sum(1 for c in self.peer_conns if not c.closed)
        if live >= TARGET_PEER_CONNECTIONS or not self.piece_pool:
            return
        if self._queries_done >= 1 + MAX_EXTRA_QUERIES:
            return
        self._schedule_query()

    def replace_connections(self) -> None:
        """A connection died; look for replacements if work remains."""
        self._maybe_requery()

    # --------------------------------------------------------- backstop policy

    def _start_backstop(self) -> None:
        if not self.system.config.client.edge_backstop_enabled:
            return
        self._backstop_event = self.system.sim.every(
            BACKSTOP_INTERVAL, self._backstop_tick
        )

    def _backstop_tick(self) -> None:
        if self.state != "active" or self.edge_conn is None:
            return
        live = [c.flow for c in self.peer_conns
                if not c.closed and c.flow is not None and c.flow.active]
        if live:
            # One flush settles every live rate read below.
            self.system.flows.flush()
        peer_rate = sum(flow.rate for flow in live)
        down = self.peer.link.down_bps
        target = EDGE_TARGET_FRACTION * down
        trickle = max(1.0, EDGE_TRICKLE_FRACTION * down)
        cap = max(trickle, target - peer_rate)
        old = self.edge_cap
        moved = old is None or abs(cap - old) > BACKSTOP_HYSTERESIS * old
        if moved:
            self.edge_conn.set_cap(cap)
        if not self.piece_pool and self.edge_conn.chunk is None:
            self.maybe_steal_for_edge()
        elif not moved:
            self._idle_backstop()

    def _idle_backstop(self) -> None:
        """Suspend, in order, until :meth:`wake_backstop` (DESIGN.md §7)."""
        self._backstop_event.suspend(keep_order=True)

    def wake_backstop(self) -> None:
        """A tick input moved: a flow started, ended or re-rated, or the link."""
        if self._backstop_event is not None:
            self._backstop_event.wake()

    def maybe_steal_for_edge(self) -> None:
        """Endgame: re-fetch a stalled peer chunk over the infrastructure.

        When the queue is empty and the edge connection is idle, find the
        in-flight peer chunk with the worst ETA; if the infrastructure could
        plausibly finish it sooner, cancel the peer transfer (keeping whole
        pieces already received) and let the edge cover the difference.
        """
        if self.state != "active" or self.edge_conn is None:
            return
        if self.piece_pool or self.edge_conn.busy:
            return
        # ETAs below come from live rates: settle pending mutations first.
        self.system.flows.flush()
        now = self.system.sim.now
        worst: Optional[PeerConnection] = None
        worst_eta = 0.0
        for conn in list(self.peer_conns):
            if conn.closed:
                continue
            if conn.flow is None or not conn.flow.active:
                if conn.busy:
                    # Defensive: a connection holding pieces with no live
                    # flow is dead (its flow was torn down externally) —
                    # close it so the pieces return to the pool.
                    conn.close(credit_partial=True)
                    if self.state != "active" or self.edge_conn is None:
                        return
                continue
            rate = conn.flow.rate
            eta = conn.flow.remaining_at(now) / rate if rate > 0 else float("inf")
            if eta > worst_eta:
                worst_eta = eta
                worst = conn
        if self.piece_pool:
            # Closing dead connections returned work to the pool.
            self.edge_conn.pull_next()
            return
        if worst is None:
            return
        down = self.peer.link.down_bps
        edge_eta = (worst.flow.remaining_at(now) if worst.flow else 0.0) / max(down, 1.0)
        if worst_eta > 2.0 * edge_eta + 1.0:
            worst.close(credit_partial=True)
            # Crediting partial pieces can complete the download and tear
            # everything down, so re-check before touching the edge conn.
            if self.state == "active" and self.edge_conn is not None:
                self.edge_conn.pull_next()

    # ------------------------------------------------------------ user actions

    def pause(self) -> None:
        """User (or connectivity loss) pauses the download; resumable."""
        if self.state != "active":
            return
        self.state = "paused"
        self._teardown_transfers(credit_partial=True)

    def resume(self) -> None:
        """Continue a paused download from where it stopped (§3.3)."""
        if self.state != "paused":
            return
        if not self.peer.online:
            return
        self.state = "active"
        self._fill_pool()
        self._open_edge_connection()
        if self.p2p_active:
            self._queries_done = max(1, self._queries_done)  # keep fig-6 counter
            self._tried_guids.clear()
            if self.peer.cn is None or not self.peer.cn.alive:
                self.peer.channel.ensure_connected()
            self._begin_p2p()

    def abort(self) -> None:
        """User cancels (or never resumes) the download: terminal."""
        if self.state in ("completed", "failed", "aborted"):
            return
        self._teardown_transfers(credit_partial=False)
        self._finish(OUTCOME_ABORTED, None)

    def fail(self, failure_class: str) -> None:
        """The download fails (system or other cause): terminal."""
        if self.state in ("completed", "failed", "aborted"):
            return
        self._teardown_transfers(credit_partial=False)
        self._finish(OUTCOME_FAILED, failure_class)

    # ------------------------------------------------------------- completion

    def _complete(self) -> None:
        if self.state in ("completed", "failed", "aborted"):
            return
        self._teardown_transfers(credit_partial=False)
        self.peer.add_to_cache(self.obj.cid)
        self._finish(OUTCOME_COMPLETED, None)

    def _teardown_transfers(self, *, credit_partial: bool) -> None:
        self._p2p_started = False
        if self._backstop_event is not None:
            self._backstop_event.cancel()
            self._backstop_event = None
        for conn in list(self.peer_conns):
            if not conn.closed:
                conn.stop(credit_partial=credit_partial)
        if self.edge_conn is not None:
            self.edge_conn.stop(credit_partial=credit_partial)
            self.edge_conn = None
        self.edge_cap = None

    def _finish(self, outcome: str, failure_class: Optional[str]) -> None:
        self.state = outcome
        self.outcome = outcome
        self.failure_class = failure_class
        self.ended_at = self.system.sim.now
        self.peer.session_finished(self)
        self._report()

    def _record_extras(self) -> dict:
        """Extra :class:`DownloadRecord` fields contributed by subclasses.

        The streaming session overrides this to attach its QoE fields;
        plain downloads contribute nothing, so the record (and everything
        fingerprinted or rendered from it) is unchanged.
        """
        return {}

    def _report(self) -> None:
        """Upload the usage report and write the CN-side download record."""
        claimed_edge = self.edge_bytes
        claimed_peer = self.peer_bytes
        per_uploader = dict(self.per_uploader_bytes)
        if self.peer.accounting_attacker:
            # Accounting attack: inflate claimed service (§6.2 / NSDI'12).
            claimed_edge = int(claimed_edge * 3) + 10_000_000
            claimed_peer = int(claimed_peer * 3) + 10_000_000

        report = UsageReport(
            guid=self.peer.guid,
            cid=self.obj.cid,
            cp_code=self.obj.provider.cp_code,
            started_at=self.started_at,
            ended_at=self.ended_at if self.ended_at is not None else self.system.sim.now,
            claimed_edge_bytes=claimed_edge,
            claimed_peer_bytes=claimed_peer,
            per_uploader_bytes=per_uploader,
            outcome=self.outcome or "aborted",
            failure_class=self.failure_class,
            per_uploader_corrupt=dict(self.corrupt_by_uploader),
            per_uploader_refusals=dict(self.refused_by_uploader),
            per_uploader_slow=dict(self.slow_by_uploader),
        )
        record = DownloadRecord(
            guid=self.peer.guid,
            url=self.obj.url,
            cid=self.obj.cid,
            cp_code=self.obj.provider.cp_code,
            size=self.obj.size,
            started_at=self.started_at,
            ended_at=report.ended_at,
            edge_bytes=self.edge_bytes,
            peer_bytes=self.peer_bytes,
            p2p_enabled=self.obj.p2p_enabled,
            outcome=self.outcome or "aborted",
            failure_class=self.failure_class,
            ip=self.peer.ip,
            peers_initially_returned=self.peers_initially_returned,
            per_uploader_bytes=dict(self.per_uploader_bytes),
            corrupted_bytes=self.corrupted_bytes,
            prefetch=self.is_prefetch,
            **self._record_extras(),
        )
        # Through the channel: lossy/retrying when configured, failing over
        # past a dead CN, and deferring to the accounting log when no CN is
        # reachable at all (logs are uploaded when connectivity returns; the
        # trace still sees the download, billing is deferred).
        self.peer.channel.report_usage(report)
        self.system.logstore.add_download(record)

    # ------------------------------------------------------------- inspection

    @property
    def progress(self) -> float:
        """Fraction of pieces received and verified."""
        if self.obj.num_pieces == 0:
            return 1.0
        return len(self.received) / self.obj.num_pieces

    @property
    def peer_fraction(self) -> float:
        """Peer efficiency so far: fraction of useful bytes from peers."""
        total = self.edge_bytes + self.peer_bytes
        if total == 0:
            return 0.0
        return self.peer_bytes / total

    def received_bytes(self) -> int:
        """Exact byte size of the verified pieces held so far.

        O(1): every piece is PIECE_SIZE except possibly the last, so a set
        of piece indexes determines the byte count without iterating it.
        The invariant auditor reconciles this against the per-source
        counters (``edge_bytes + peer_bytes``) on every sampled audit.
        """
        n = len(self.received)
        if n == 0:
            return 0
        nbytes = n * PIECE_SIZE
        if (self.obj.num_pieces - 1) in self.received:
            nbytes += self.obj.last_piece_size - PIECE_SIZE
        return nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DownloadSession {self.obj.url} peer={self.peer.guid[:8]} "
            f"{self.state} {self.progress:.0%}>"
        )
