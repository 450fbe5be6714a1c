"""System and client configuration: the knobs the paper describes.

Configuration flows from the content provider and the CDN operator to the
peers through the trusted edge-server connections (paper §3.5: "These
policies and options are securely communicated to the peers through the
trusted edge-server infrastructure").  The values here encode the specific
behaviours the paper calls out:

* up to 40 peers returned per control-plane query (§3.7);
* a globally configurable cap on upload connections, *not* tit-for-tat (§3.4);
* per-object upload-count limits and rate limiting (§3.9);
* upload back-off when the user's connection is busy (§3.9);
* cache retention for completed downloads (§5.2: "keeps it in a local cache
  for a certain amount of time").
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

__all__ = [
    "ClientConfig", "ControlChannelConfig", "ControlPlaneConfig",
    "DefenseConfig", "InvariantConfig", "SystemConfig",
]


@dataclass(frozen=True)
class ClientConfig:
    """Per-peer configuration, centrally distributed (paper §3.5, §3.9)."""

    #: Maximum simultaneous upload connections a peer serves (global limit;
    #: NetSession has no per-peer reciprocity).
    max_upload_connections: int = 6
    #: Cap on upload rate as a fraction of the peer's uplink capacity —
    #: uploads are "intentionally limited using custom protocols".
    upload_rate_fraction: float = 0.8
    #: A peer uploads each object at most this many times (§3.9, §6.1: this
    #: is one of the mechanisms keeping AS traffic balanced).
    max_uploads_per_object: int = 20
    #: Seconds a completed object stays in the local cache / registered
    #: with the control plane.  Default one week.
    cache_retention: float = 7 * 24 * 3600.0
    #: Probability per hour that a peer's link is busy with other traffic.
    #: Drives the back-off machinery.
    link_busy_prob_per_hour: float = 0.05
    #: Disable to let the edge connection run at full fair share even in
    #: peer-assisted downloads (ablation: no offload incentive; the policy
    #: itself is :data:`repro.core.swarm.EDGE_TARGET_FRACTION` and friends).
    edge_backstop_enabled: bool = True

    # --- integrity ----------------------------------------------------------
    #: Per-piece probability that a piece received from an (honest) peer
    #: fails hash verification (link corruption, disk errors).
    piece_corruption_prob: float = 1e-4
    #: Download fails with a system cause after this many corrupted pieces
    #: ("too many corrupted content blocks", §5.2).
    max_corrupted_pieces: int = 30
    #: Drop a peer connection after this many corrupted pieces from it.
    conn_corruption_ban: int = 2

    def __post_init__(self):
        if self.max_upload_connections < 0:
            raise ValueError("max_upload_connections must be >= 0")
        if not 0 < self.upload_rate_fraction <= 1.0:
            raise ValueError("upload_rate_fraction must be in (0, 1]")
        if self.max_uploads_per_object <= 0:
            raise ValueError("max_uploads_per_object must be positive")
        if self.cache_retention <= 0:
            raise ValueError("cache_retention must be positive")


@dataclass(frozen=True)
class ControlPlaneConfig:
    """Control-plane behaviour (paper §3.6–3.8)."""

    #: Peers returned per query ("By default, up to 40 peers are returned").
    peers_per_query: int = 40
    #: Probability of occasionally selecting from a less-specific locality
    #: set, "proportional to the specificity of the set" (§3.7).
    diversity_probability: float = 0.10
    #: Reconnection rate limit (reconnects/second accepted per CN) used
    #: during large-scale failures (§3.8).
    reconnect_rate_limit: float = 500.0
    #: How long a DN keeps a peer's registration without a refresh before
    #: expiring it (soft state).
    registration_ttl: float = 6 * 3600.0
    #: The CN/DN system is interconnected across regions and can "in
    #: principle search for peers from any region" (§3.7).  When the local
    #: DNs return fewer candidates than this, the CN widens the search to
    #: remote regions; 0 disables remote search entirely.
    remote_search_threshold: int = 5

    def __post_init__(self):
        if self.peers_per_query <= 0:
            raise ValueError("peers_per_query must be positive")
        if not 0.0 <= self.diversity_probability <= 1.0:
            raise ValueError("diversity_probability must be in [0, 1]")
        if not self.reconnect_rate_limit > 0:
            raise ValueError("reconnect_rate_limit must be positive")
        if self.remote_search_threshold < 0:
            raise ValueError("remote_search_threshold must be >= 0")


@dataclass(frozen=True)
class ControlChannelConfig:
    """Peer↔CN control-channel behaviour (the §3.8 reliability layer).

    Every control RPC (login, query, register/refresh, usage report, RE-ADD
    reply) flows through a per-peer :class:`~repro.core.control.channel.ControlChannel`
    governed by these knobs.  The defaults describe an *ideal* channel —
    zero latency, zero loss — under which every RPC is delivered
    synchronously, exactly as a direct Python call: the fixed-seed golden
    experiments depend on that equivalence.  Fault scenarios raise latency
    and loss per peer (see :class:`~repro.faults.spec.ControlMessageLoss`).
    """

    #: One-way message latency, seconds.  0 = synchronous delivery.
    latency: float = 0.0
    #: Per-direction message loss probability.  0 = lossless.
    loss_prob: float = 0.0
    #: Seconds a request waits for its response before retrying.
    request_timeout: float = 15.0
    #: Consecutive failed attempts (across requests) that trip the circuit
    #: breaker into the ``degraded`` edge-only state.
    breaker_threshold: int = 5
    #: Seconds between recovery probes while degraded.  On probe success the
    #: peer re-logs-in, re-registers, and promotes edge-only sessions.
    probe_interval: float = 60.0

    def __post_init__(self):
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.breaker_threshold <= 0:
            raise ValueError("breaker_threshold must be positive")
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive")


@dataclass(frozen=True)
class InvariantConfig:
    """Runtime invariant-audit behaviour (the sanitizer layer).

    The system registers an :class:`~repro.invariants.auditor.InvariantAuditor`
    with the simulator, which runs the cheap checkers every ``every_events``
    processed events and the full set (including final-only reconciliation
    checkers) at end-of-run.  Like a sanitizer, the layer has three modes:

    * ``off``     — never check (the auditor is not even installed);
    * ``observe`` — check, record structured violations, never raise;
    * ``strict``  — raise :class:`~repro.invariants.violation.InvariantViolationError`
      on the first *error*-severity violation (warnings are still only
      recorded — they describe legitimate soft-state drift windows).

    The default mode ``auto`` resolves through the ``REPRO_INVARIANTS``
    environment variable (``off``/``observe``/``strict``) and falls back to
    ``observe`` — the layer is cheap enough to leave on.
    """

    #: ``auto`` (env-resolved), ``off``, ``observe``, or ``strict``.
    mode: str = "auto"
    #: Run the sampled checkers every this many simulator events (the
    #: end-of-run audit always runs).  Must be positive.
    every_events: int = 20_000
    #: Cap on *distinct* recorded violations (deduplicated by invariant,
    #: severity, and subject); further distinct ones are dropped and counted.
    max_violations: int = 200
    #: Restrict the audit to these checker names; empty = all registered.
    checkers: tuple[str, ...] = ()

    _MODES = ("auto", "off", "observe", "strict")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}, got {self.mode!r}")
        if self.every_events <= 0:
            raise ValueError("every_events must be positive")
        if self.max_violations <= 0:
            raise ValueError("max_violations must be positive")

    def resolve_mode(self) -> str:
        """The effective mode: ``auto`` resolved via ``REPRO_INVARIANTS``."""
        if self.mode != "auto":
            return self.mode
        env = os.environ.get("REPRO_INVARIANTS", "").strip().lower()
        if env in ("off", "observe", "strict"):
            return env
        return "observe"


@dataclass(frozen=True)
class DefenseConfig:
    """Reputation/quarantine defense against persistently adversarial peers.

    Sessions record per-uploader observations (verified bytes delivered,
    corrupted pieces, refused/empty connections, trickling serves) and ship
    them CN-side inside the existing :class:`~repro.core.messages.UsageReport`
    RPC.  When enabled, the CN aggregates them into a per-peer reputation
    score that ranks query candidates, quarantines peers whose score falls
    to the quarantine threshold (with registration eviction), and re-admits
    them on probation later; the scoring constants live in
    :mod:`repro.adversary.reputation`.

    **Disabled by default**: with ``enabled=False`` no reputation engine is
    constructed, no score is updated, selection consumes the exact same RNG
    stream, and every golden experiment stays byte-identical.  The session-
    side observation bookkeeping always runs — it is pure counting with no
    RNG draws and also feeds the drill/`SystemStats` corruption counters.
    """

    #: Master switch.  False = no engine, no ranking, no quarantine.
    enabled: bool = False


@dataclass(frozen=True)
class SystemConfig:
    """Top-level assembly of all configuration."""

    client: ClientConfig = field(default_factory=ClientConfig)
    control_plane: ControlPlaneConfig = field(default_factory=ControlPlaneConfig)
    channel: ControlChannelConfig = field(default_factory=ControlChannelConfig)
    invariants: InvariantConfig = field(default_factory=InvariantConfig)
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    #: Edge egress per server in Mbit/s; None = overprovisioned (never the
    #: bottleneck), matching the paper's production observations.
    edge_egress_mbps: float | None = None
    #: If False, peers never query the control plane — the system degrades
    #: to a pure infrastructure CDN (used for the edge-only baseline and the
    #: total-control-plane-failure scenario of §3.8).
    p2p_globally_enabled: bool = True

    def resolve_kernel(self) -> str:
        """Always ``"python"``: there is one water-filling kernel.

        Kept only because ``benchmarks/perf/harness.resolved_modes()``
        reports it at the top of every benchmark run and a PR may not
        change the benchmark it is measured with; nothing under ``src/``
        calls it.  Goes with the ``benchmark`` PR that stops
        ``resolved_modes()`` calling the ``resolve_*`` accessors.
        """
        return "python"

    def with_client(self, **changes) -> "SystemConfig":
        """Return a copy with client-config fields replaced."""
        return replace(self, client=replace(self.client, **changes))

    def with_control_plane(self, **changes) -> "SystemConfig":
        """Return a copy with control-plane fields replaced."""
        return replace(self, control_plane=replace(self.control_plane, **changes))

    def with_invariants(self, **changes) -> "SystemConfig":
        """Return a copy with invariant-audit fields replaced."""
        return replace(self, invariants=replace(self.invariants, **changes))

    def with_defense(self, **changes) -> "SystemConfig":
        """Return a copy with reputation-defense fields replaced."""
        return replace(self, defense=replace(self.defense, **changes))
