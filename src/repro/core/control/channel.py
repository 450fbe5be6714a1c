"""The control-channel reliability layer: lossy RPC between peer and CN.

Every peer↔CN interaction — login, peer query, register/refresh,
unregister, usage report, RE-ADD reply — flows through a per-peer
:class:`ControlChannel`.  The channel models the persistent control
connection of §3.4 as an unreliable transport and implements the §3.8
client-side robustness story on top of it:

* **lossy, latent RPC** — each message direction has a configurable
  one-way latency and loss probability; a request whose message (or
  response) is lost is detected by a per-request timeout;
* **retries with capped exponential backoff** — failed attempts retry at
  ``BACKOFF_BASE * 2^attempt`` seconds (capped), with deterministic jitter
  drawn from the channel's own string-seeded RNG;
* **CN failover** — when the peer's CN has died, the next request fails
  over through :meth:`ControlPlane.cn_for` and re-opens the control
  connection on the replacement, instead of waiting for an external
  ``reconnect()``;
* **circuit breaker and recoverable degradation** — after
  ``breaker_threshold`` consecutive failed attempts the channel trips into
  an explicit ``degraded`` state: the peer runs edge-only (the §3.8
  fallback) while periodic recovery probes test the control plane.  On
  probe success the peer re-logs-in, re-registers its cache, and every
  in-flight edge-only download is promoted back to hybrid mid-transfer.

State machine: ``healthy`` → ``retrying`` (request in backoff) →
``degraded`` (breaker tripped, edge-only) → ``probing`` (recovery probe in
flight) → recovered (back to ``healthy``).  See DESIGN.md's
"Control-channel reliability" section.

**Determinism and the ideal channel.**  With the default configuration
(zero latency, zero loss) every request takes a synchronous fast path that
is byte-for-byte equivalent to the direct method calls the pre-channel
code made: no simulator events are scheduled, no RNG is consumed.  The
channel's own RNG is string-seeded from the peer GUID, so even the lossy
paths never perturb any other random stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.counters import Counters, counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.control.connection_node import ConnectionNode
    from repro.core.messages import UsageReport
    from repro.core.peer import PeerNode

__all__ = ["ControlChannel", "ControlChannelStats",
           "HEALTHY", "RETRYING", "DEGRADED", "PROBING", "ALL_STATES"]

#: Channel states (the §3.8 client-side state machine).
HEALTHY = "healthy"
RETRYING = "retrying"
DEGRADED = "degraded"
PROBING = "probing"

#: Every legal state.  PROBING is transient *within* a probe callback and is
#: never observable at event boundaries; the invariant auditor checks that.
ALL_STATES = frozenset((HEALTHY, RETRYING, DEGRADED, PROBING))

#: Retries per request after the first attempt; past this the request
#: gives up (the caller's ``on_giveup`` fires).
MAX_RETRIES = 4
#: First retry backoff, seconds; doubles per retry up to the cap.
BACKOFF_BASE = 2.0
#: Ceiling on the exponential backoff, seconds.
BACKOFF_CAP = 120.0
#: Jitter fraction applied to each backoff delay, drawn from the channel's
#: own string-seeded RNG (deterministic per peer).
BACKOFF_JITTER = 0.25


@dataclass
class ControlChannelStats(Counters):
    """Fleet-wide robustness counters, aggregated across all channels.

    Cumulative since system creation.  One instance lives on the system;
    every peer's channel increments it.
    """

    #: RPCs issued (all operations, before any retries).
    requests: int = 0
    #: Individual send attempts (first tries plus retries).
    attempts: int = 0
    #: Messages lost in flight (either direction).
    lost_messages: int = 0
    #: Attempts that expired waiting for a response.
    timeouts: int = 0
    #: Backoff retries scheduled.
    retries: int = 0
    #: Requests that exhausted their retries (caller's on_giveup fired).
    giveups: int = 0
    #: Requests dropped immediately because the channel was degraded.
    dropped_degraded: int = 0
    #: Requests re-homed to a replacement CN after their CN died.
    failovers: int = 0
    #: Circuit-breaker trips into the degraded (edge-only) state.
    breaker_trips: int = 0
    #: Recovery probes sent while degraded, and how many failed.
    probes: int = 0
    probe_failures: int = 0
    #: Successful recoveries (probe success or externally-driven reconnect
    #: of a degraded channel).
    recoveries: int = 0
    #: Total seconds spent degraded (closed periods only: recovery or the
    #: peer going offline ends a period).
    degraded_seconds: float = counter(
        0.0, digits=1, then=("mean_time_to_recover", 1))
    #: Edge-only downloads promoted back to hybrid after recovery.
    sessions_promoted: int = 0

    @property
    def mean_time_to_recover(self) -> float:
        """Mean seconds from breaker trip to recovery (0.0 if none)."""
        if self.recoveries == 0:
            return 0.0
        return self.degraded_seconds / self.recoveries


class _Request:
    """One in-flight RPC: its closure, callbacks, and retry state."""

    __slots__ = ("op", "execute", "on_result", "on_giveup", "attempt",
                 "fresh_login", "done", "timed_out", "timeout_event",
                 "retry_event")

    def __init__(self, op, execute, on_result, on_giveup, *, fresh_login):
        self.op = op
        self.execute = execute
        self.on_result = on_result
        self.on_giveup = on_giveup
        self.attempt = 0
        #: Login requests resolve a fresh CN mapping instead of failing
        #: over (there is no connection to fail over *from* yet).
        self.fresh_login = fresh_login
        self.done = False
        self.timed_out = False
        self.timeout_event = None
        self.retry_event = None


class ControlChannel:
    """One peer's control connection, as an unreliable RPC transport."""

    def __init__(self, peer: "PeerNode"):
        self.peer = peer
        self.system = peer.system
        cfg = peer.system.config.channel
        self.cfg = cfg
        #: Live link parameters; fault specs override these per peer.
        self.latency = cfg.latency
        self.loss_prob = cfg.loss_prob
        #: False while a partition separates this peer from every CN
        #: (:class:`~repro.faults.spec.RegionPartition`).
        self.reachable = True
        # String seeding keeps the stream stable across processes and, more
        # importantly, consumes nothing from any existing RNG — creating a
        # channel cannot perturb the fixed-seed experiment pipeline.
        self.rng = random.Random(f"ctrl-channel:{peer.guid}")
        self.stats = peer.system.channel_stats
        self.state = HEALTHY
        self.consecutive_failures = 0
        #: When the current degraded period began (None while not degraded).
        self.degraded_since: Optional[float] = None
        #: Times this channel's breaker has tripped.
        self.times_degraded = 0
        #: When the last recovery completed, and how long the outage was.
        self.last_recovered_at: Optional[float] = None
        self.last_downtime: Optional[float] = None
        self._probe_event = None
        self._pending: set[_Request] = set()
        self._connecting = False

    # ------------------------------------------------------------ public RPCs

    def connect(self) -> None:
        """Open the control connection (login).  Sets ``peer.cn`` on success.

        With the ideal channel this is synchronous: ``peer.cn`` is assigned
        before the call returns, exactly as the direct
        ``ControlPlane.login`` call used to behave.  On failure the normal
        retry → breaker → degraded machinery applies, so a peer that comes
        up during a total control-plane outage ends degraded with recovery
        probes running (§3.8 edge-only fallback, now recoverable).
        """
        peer = self.peer
        self._connecting = True

        def execute(cn: "ConnectionNode"):
            cn.login(peer, self.system.sim.now)
            return cn

        def on_result(cn: "ConnectionNode") -> None:
            self._connecting = False
            peer.cn = cn

        def on_giveup() -> None:
            self._connecting = False

        self.request("login", execute, on_result=on_result,
                     on_giveup=on_giveup, fresh_login=True)

    def ensure_connected(self) -> None:
        """Re-establish the control connection if it is gone.

        Used by download sessions that start while the CN is unreachable:
        if the channel is healthy but the connection is dead, a login
        request (with failover) is issued; if the channel is already
        retrying or degraded, the existing machinery is left to finish —
        recovery will promote the session either way.
        """
        peer = self.peer
        if not peer.online or self._connecting:
            return
        if self.state != HEALTHY:
            return
        if peer.cn is not None and peer.cn.alive:
            return
        self._connecting = True

        def execute(cn: "ConnectionNode"):
            cn.login(peer, self.system.sim.now)
            return cn

        def on_result(cn: "ConnectionNode") -> None:
            self._connecting = False
            self._reestablished(cn)

        def on_giveup() -> None:
            self._connecting = False

        self.request("relogin", execute, on_result=on_result,
                     on_giveup=on_giveup, fresh_login=True)

    def query(self, cid: str, token, exclude, on_response) -> None:
        """Ask the CN for upload candidates (§3.7), with failover."""
        peer = self.peer
        self.request(
            "query",
            lambda cn: cn.query(peer, cid, token, exclude=exclude),
            on_result=on_response,
        )

    def register(self, cid: str, on_registered=None) -> None:
        """Register one cached object with the directory."""
        peer = self.peer
        self.request(
            "register",
            lambda cn: cn.register_content(peer, cid, self.system.sim.now),
            on_result=(lambda _res: on_registered()) if on_registered else None,
        )

    def unregister(self, cid: str) -> None:
        """Withdraw one (peer, object) directory entry."""
        peer = self.peer
        self.request("unregister", lambda cn: cn.unregister_content(peer, cid))

    def refresh_registrations(self) -> None:
        """Soft-state refresh of every shareable object (§3.8).

        The whole refresh is one RPC: if the peer's CN has died, the
        request fails over to a live CN (re-opening the control connection
        there) instead of silently skipping the refresh and letting the
        registrations expire out of the directory.
        """
        peer = self.peer

        def execute(cn: "ConnectionNode"):
            now = self.system.sim.now
            count = 0
            for cid in peer.shareable_cids():
                cn.register_content(peer, cid, now)
                count += 1
            return count

        self.request("refresh", execute)

    def report_usage(self, report: "UsageReport") -> None:
        """Upload a usage report; defer to the accounting log on give-up.

        Matches the production semantics: reports that cannot reach a CN
        are uploaded when connectivity returns — the trace still sees the
        download, billing is deferred (modelled as a direct ingest).
        """
        self.request(
            "usage",
            lambda cn: cn.report_usage(report),
            on_giveup=lambda: self.system.accounting.ingest(report),
        )

    def answer_re_add(self, cn: "ConnectionNode") -> bool:
        """Reply to a RE-ADD broadcast by re-listing stored files (§3.8).

        Returns True when the reply was sent (it may still be lost in
        flight; the periodic refresh heals any gap).  A degraded or
        partitioned peer cannot answer.
        """
        peer = self.peer
        if self.state == DEGRADED or not self.reachable:
            return False

        def deliver() -> None:
            if not cn.alive or not peer.online:
                return
            now = self.system.sim.now
            for cid in peer.handle_re_add():
                cn.register_content(peer, cid, now)

        if self._ideal():
            deliver()
            return True
        self.stats.attempts += 1
        if self.rng.random() < self.loss_prob:
            self.stats.lost_messages += 1
            return False
        self.system.sim.schedule(2.0 * self.latency, deliver)
        return True

    # -------------------------------------------------------- request engine

    def request(self, op: str, execute, *, on_result=None, on_giveup=None,
                fresh_login: bool = False) -> None:
        """Issue one RPC: ``execute(cn)`` runs CN-side at delivery time.

        ``on_result`` receives the return value of ``execute`` once the
        response arrives; ``on_giveup`` fires when the request exhausts its
        retries or the channel is (or goes) degraded.
        """
        self.stats.requests += 1
        if self.state == DEGRADED:
            self.stats.dropped_degraded += 1
            if on_giveup is not None:
                on_giveup()
            return
        req = _Request(op, execute, on_result, on_giveup,
                       fresh_login=fresh_login)
        self._pending.add(req)
        self._attempt(req)

    def _ideal(self) -> bool:
        return self.latency <= 0 and self.loss_prob <= 0 and self.reachable

    def _resolve_cn(self, req: _Request) -> Optional["ConnectionNode"]:
        """The CN this attempt talks to, failing over if ours has died."""
        peer = self.peer
        if req.fresh_login:
            return self.system.control.cn_for(peer)
        cn = peer.cn
        if cn is not None and cn.alive and peer.guid in cn.connected:
            return cn
        # CN-side liveness: the CN died, or it restarted and no longer
        # holds our connection (membership in its table is the ground
        # truth).  Either way the peer notices on its next send and fails
        # over on its own (§3.8), re-opening the control connection —
        # possibly on the same, recovered node.
        cn = self.system.control.cn_for(peer)
        if cn is None:
            return None
        cn.login(peer, self.system.sim.now)
        self.stats.failovers += 1
        self._reestablished(cn)
        return cn

    def _attempt(self, req: _Request) -> None:
        req.retry_event = None
        if req.done:
            self._pending.discard(req)
            return
        if not self.peer.online:
            # The peer dropped offline with this request queued; hand it to
            # the give-up path so deferred work (usage reports) still runs.
            self._giveup(req)
            return
        cn = self._resolve_cn(req)
        if cn is None:
            # Nothing reachable at all; fail fast (no message to lose).
            self._attempt_failed(req)
            return
        if self._ideal():
            result = req.execute(cn)
            self._succeed(req, result)
            return
        self.stats.attempts += 1
        req.timed_out = False
        req.timeout_event = self.system.sim.schedule(
            self.cfg.request_timeout, lambda: self._timeout(req)
        )
        if not self.reachable or self.rng.random() < self.loss_prob:
            # Request message lost: nothing arrives, the timeout fires.
            self.stats.lost_messages += 1
            return
        self.system.sim.schedule(self.latency, lambda: self._deliver(req, cn))

    def _deliver(self, req: _Request, cn: "ConnectionNode") -> None:
        """The request message arrives CN-side (one latency later)."""
        if req.done or req.timed_out:
            return
        if not cn.alive:
            return  # the CN died in flight; no response, the timeout fires
        result = req.execute(cn)
        # The CN-side effect has happened even if the response is lost —
        # retries are idempotent re-applications, as in the real protocol.
        if not self.reachable or self.rng.random() < self.loss_prob:
            self.stats.lost_messages += 1
            return
        self.system.sim.schedule(
            self.latency, lambda: self._respond(req, result)
        )

    def _respond(self, req: _Request, result: object) -> None:
        """The response arrives client-side (another latency later)."""
        if req.done or req.timed_out:
            return  # superseded by a timeout/retry; drop the stale response
        self._succeed(req, result)

    def _succeed(self, req: _Request, result: object) -> None:
        req.done = True
        self._pending.discard(req)
        if req.timeout_event is not None:
            req.timeout_event.cancel()
            req.timeout_event = None
        self.consecutive_failures = 0
        if self.state == RETRYING:
            self.state = HEALTHY
        if req.on_result is not None:
            req.on_result(result)

    def _timeout(self, req: _Request) -> None:
        if req.done:
            return
        req.timed_out = True
        req.timeout_event = None
        self.stats.timeouts += 1
        self._attempt_failed(req)

    def _attempt_failed(self, req: _Request) -> None:
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.cfg.breaker_threshold:
            self._giveup(req)
            self._trip()
            return
        if req.attempt >= MAX_RETRIES:
            self._giveup(req)
            return
        req.attempt += 1
        self.stats.retries += 1
        if self.state == HEALTHY:
            self.state = RETRYING
        delay = min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** (req.attempt - 1)))
        delay *= 1.0 + BACKOFF_JITTER * self.rng.uniform(-1.0, 1.0)
        req.retry_event = self.system.sim.schedule(
            delay, lambda: self._attempt(req)
        )

    def _giveup(self, req: _Request) -> None:
        req.done = True
        self._pending.discard(req)
        if req.timeout_event is not None:
            req.timeout_event.cancel()
            req.timeout_event = None
        self.stats.giveups += 1
        if req.on_giveup is not None:
            req.on_giveup()

    # -------------------------------------------- degradation and recovery

    def _trip(self) -> None:
        """Trip the circuit breaker: edge-only until a probe succeeds."""
        if self.state == DEGRADED:
            return
        self.state = DEGRADED
        self.stats.breaker_trips += 1
        self.times_degraded += 1
        self.degraded_since = self.system.sim.now
        self.peer.cn = None
        # Shed in-flight requests: they would only hammer a dead plane.
        for req in list(self._pending):
            self._giveup(req)
        self._schedule_probe()

    def _schedule_probe(self) -> None:
        if self._probe_event is not None:
            self._probe_event.cancel()
        self._probe_event = self.system.sim.schedule(
            self.cfg.probe_interval, self._probe
        )

    def _probe(self) -> None:
        """One recovery probe: can we reach a CN again?"""
        self._probe_event = None
        if self.state != DEGRADED or not self.peer.online:
            return
        self.stats.probes += 1
        self.state = PROBING
        cn = self.system.control.cn_for(self.peer)
        delivered = (
            cn is not None
            and self.reachable
            and (self.loss_prob <= 0 or self.rng.random() >= self.loss_prob)
        )
        if not delivered:
            self.stats.probe_failures += 1
            self.state = DEGRADED
            self._schedule_probe()
            return
        cn.login(self.peer, self.system.sim.now)
        self._recovered(cn)

    def reconnect(self) -> None:
        """Externally-driven reconnection (§3.8 rate-limited recovery path).

        Invoked by :meth:`ControlPlane.schedule_reconnects` after CN
        failures and blackout restores.  A healthy channel simply re-opens
        the connection; a degraded one treats this as an immediate probe.
        """
        peer = self.peer
        if not peer.online:
            return
        if self.state == DEGRADED:
            self.stats.probes += 1
        cn = self.system.control.cn_for(peer)
        if cn is None or not self.reachable:
            if self.state == DEGRADED:
                self.stats.probe_failures += 1
            elif peer.cn is None or not peer.cn.alive:
                # The old behaviour left a dead reference; now the failed
                # reconnect counts towards the breaker so probes take over.
                self._note_unreachable()
            peer.cn = None if cn is None else peer.cn
            return
        cn.login(peer, self.system.sim.now)
        self._reestablished(cn)

    def _note_unreachable(self) -> None:
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.cfg.breaker_threshold:
            self._trip()

    def _reestablished(self, cn: "ConnectionNode") -> None:
        """A control connection is open again: heal state, promote sessions."""
        peer = self.peer
        peer.cn = cn
        if self.state == DEGRADED or self.state == PROBING:
            self._recovered(cn)
            return
        self.consecutive_failures = 0
        self.state = HEALTHY
        self._promote_sessions()

    def _recovered(self, cn: "ConnectionNode") -> None:
        """Recovery proper: close the degraded period, restore soft state."""
        peer = self.peer
        now = self.system.sim.now
        peer.cn = cn
        if self.degraded_since is not None:
            downtime = now - self.degraded_since
            self.stats.degraded_seconds += downtime
            self.last_downtime = downtime
            self.degraded_since = None
        self.stats.recoveries += 1
        self.last_recovered_at = now
        self.consecutive_failures = 0
        self.state = HEALTHY
        if self._probe_event is not None:
            self._probe_event.cancel()
            self._probe_event = None
        # The login above re-registered the shareable cache; reflect that
        # in the local flags so later evictions withdraw their entries.
        for cid in peer.shareable_cids():
            entry = peer.cache.get(cid)
            if entry is not None:
                entry.registered = True
        self._promote_sessions()

    def _promote_sessions(self) -> None:
        """Promote in-flight edge-only downloads back to hybrid (§3.8)."""
        promoted = 0
        for session in list(self.peer.sessions.values()):
            if session.promote_to_hybrid():
                promoted += 1
        self.stats.sessions_promoted += promoted

    # ------------------------------------------------------------- lifecycle

    def reset(self) -> None:
        """The peer went offline: drop all channel state.

        An open degraded period is accounted (without counting a recovery);
        pending requests, retries, and probes are cancelled.  The next
        ``go_online`` starts from a clean, healthy channel.
        """
        now = self.system.sim.now
        if self.degraded_since is not None:
            self.stats.degraded_seconds += now - self.degraded_since
            self.degraded_since = None
        if self._probe_event is not None:
            self._probe_event.cancel()
            self._probe_event = None
        for req in list(self._pending):
            req.done = True
            if req.timeout_event is not None:
                req.timeout_event.cancel()
            if req.retry_event is not None:
                req.retry_event.cancel()
            if req.on_giveup is not None:
                req.on_giveup()
        self._pending.clear()
        self.state = HEALTHY
        self.consecutive_failures = 0
        self._connecting = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ControlChannel peer={self.peer.guid[:8]} {self.state} "
            f"lat={self.latency}s loss={self.loss_prob}>"
        )
