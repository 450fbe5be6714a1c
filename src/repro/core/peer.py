"""The NetSession Interface: the client software on each user machine.

Paper §3.4: a background application that runs whenever the user is logged
in, keeps a persistent control connection open, downloads over HTTP(S) from
edge servers and a BitTorrent-like swarming protocol from peers, and —
deliberately — has *no* incentive mechanism: users can disable uploads with
no effect on their own download performance.

§3.9's best practices are implemented here: uploads are rate-limited, each
object is uploaded at most a bounded number of times, uploads back off when
the user's connection is busy, content is only shared if the local user
downloaded it (no proactive caching), and cached objects expire after a
retention period.

A peer's identity is its install-time GUID; every software start draws a
fresh *secondary* GUID (the §6.2 cloning instrumentation).  Disk cloning and
re-imaging are modelled by snapshotting and restoring the identity state —
see :meth:`PeerNode.snapshot_identity` / :meth:`PeerNode.restore_identity`.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.control.channel import ControlChannel
from repro.core.ids import SECONDARY_HISTORY_LENGTH, make_guid, make_secondary_guid
from repro.net.links import AccessLink
from repro.net.nat import NATProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.content import ContentObject
    from repro.core.control.connection_node import ConnectionNode
    from repro.core.swarm import DownloadSession
    from repro.core.system import NetSessionSystem
    from repro.net.geo import City, Country
    from repro.net.topology import AutonomousSystem

__all__ = ["BACKOFF_RATE_FRACTION", "PeerNode", "CacheEntry", "IdentitySnapshot"]

#: When the user's own traffic occupies the link, uploads throttle to this
#: fraction of the uplink instead of ``ClientConfig.upload_rate_fraction``
#: (back-off best practice, §3.9).
BACKOFF_RATE_FRACTION = 0.1


@dataclass
class CacheEntry:
    """A complete object held in the peer's local cache."""

    cid: str
    completed_at: float
    registered: bool = False


@dataclass(frozen=True)
class IdentitySnapshot:
    """Cloneable installation state: what a disk image captures (§6.2)."""

    guid: str
    secondary_history: tuple[str, ...]


class PeerNode:
    """One NetSession installation on one user machine."""

    def __init__(
        self,
        system: "NetSessionSystem",
        country: "Country",
        city: "City",
        asys: "AutonomousSystem",
        link: AccessLink,
        nat_profile: NATProfile,
        *,
        uploads_enabled: bool,
        installed_from_cp: int = 0,
        software_version: str | None = None,
        guid: str | None = None,
        rng: random.Random | None = None,
    ):
        self.system = system
        # ``rng`` lets the population store materialize a peer with the
        # exact per-peer stream the eager build would have given it (replayed
        # from the recorded 64-bit seed) without consuming a fresh
        # system.rng draw.
        self.rng: random.Random = (
            rng if rng is not None else random.Random(system.rng.getrandbits(64))
        )
        self.guid = guid if guid is not None else make_guid(self.rng)
        self.secondary_history: deque[str] = deque(maxlen=SECONDARY_HISTORY_LENGTH)
        # The version string identifies the bundle, as production installers
        # do — the Table 4 analysis attributes peers to providers with it.
        if software_version is None:
            software_version = f"ns-3.6-cp{installed_from_cp}"
        self.software_version = software_version
        self.installed_from_cp = installed_from_cp

        self.country = country
        self.city = city
        self.asys = asys
        self.link = link
        self.nat_profile = nat_profile
        self.uploads_enabled = uploads_enabled
        #: Corporate LAN membership (§5.3); None for residential peers.
        self.lan = None

        self.online = False
        self.ip: str = ""
        self.cn: Optional["ConnectionNode"] = None
        self._refresh_event = None
        #: The §3.8 reliability layer: every CN RPC flows through it, with
        #: retries, CN failover, and recoverable edge-only degradation.
        self.channel = ControlChannel(self)

        #: Per-piece corruption probability when this peer uploads; the
        #: population layer raises it for broken/malicious machines.
        self.piece_corruption_prob = system.config.client.piece_corruption_prob
        #: If True, this peer inflates its usage reports (accounting attack,
        #: §6.2); the accounting service should filter its reports.
        self.accounting_attacker = False
        #: Misbehavior profile (see :data:`repro.adversary.PROFILES`), or
        #: None for an honest peer.  Assigned by the adversary layer; the
        #: slow_loris throttle factor rides along with that profile.
        self.adversary_profile: Optional[str] = None
        self.adversary_slow_factor = 1.0
        #: Device tier (a :class:`repro.workload.devices.DeviceClass`), or
        #: None for the homogeneous-desktop default.  Set by population
        #: synthesis when ``PopulationConfig.device`` declares a mix; caps
        #: the upload rate and the cache budget, and drives scheduling.
        self.device = None

        self.cache: dict[str, CacheEntry] = {}
        self.uploads_done: dict[str, int] = {}
        self.active_upload_count = 0
        self.upload_flows: set = set()  # live Flow objects serving others
        self.link_busy = False

        self.sessions: dict[str, "DownloadSession"] = {}
        self._paused_for_offline: list[str] = []

        # Counters for tests and the §6.2 analyses.
        self.boot_count = 0
        self.setting_changes = 0
        #: Times the NAT in front of this machine re-assigned its mapping.
        self.nat_rebinds = 0

    # ------------------------------------------------------ locality shortcuts

    @property
    def asn(self) -> int:
        """The AS number this peer currently attaches from."""
        return self.asys.asn

    @property
    def country_code(self) -> str:
        """ISO country code of the current location."""
        return self.country.code

    @property
    def geo_region(self) -> str:
        """Geographic region (Table 2 regions) of the current location."""
        return self.country.region

    @property
    def network_region(self) -> str:
        """Control-plane network region the peer maps to."""
        return self.asys.network_region

    @property
    def lan_id(self) -> str:
        """The peer's LAN site id, or "" for residential peers."""
        return self.lan.site_id if self.lan is not None else ""

    @property
    def device_class(self) -> str:
        """Device-tier name ("desktop" for the homogeneous default)."""
        return self.device.name if self.device is not None else "desktop"

    # ---------------------------------------------------------------- lifecycle

    def boot(self) -> None:
        """A software start: draw a fresh secondary GUID (§6.2) and go online.

        Booting while online models a machine restart: the old session ends
        first (downloads pause and resume across the restart, §3.3).
        """
        if self.online:
            self.go_offline()
        self.boot_count += 1
        self.secondary_history.appendleft(make_secondary_guid(self.rng))
        self.go_online()

    def go_online(self) -> None:
        """Connect: obtain an IP, open the control connection, resume work.

        If no CN is reachable (total control-plane failure, §3.8) the peer
        still comes online — downloads fall back to edge-only while the
        channel's breaker/probe machinery keeps trying to get back in.
        """
        if self.online:
            return
        self.online = True
        self.ip = self.system.allocator.assign(self.asys, self.country, self.city)
        self.channel.connect()
        # Refresh directory registrations well inside the DN soft-state TTL
        # (registrations expire unless refreshed — §3.8 soft state).
        ttl = self.system.config.control_plane.registration_ttl
        self._refresh_event = self.system.sim.every(
            ttl / 3.0, self._refresh_registrations
        )
        resumable = self._paused_for_offline
        self._paused_for_offline = []
        for cid in resumable:
            session = self.sessions.get(cid)
            if session is not None and session.state == "paused":
                session.resume()

    def _refresh_registrations(self) -> None:
        """Periodic soft-state refresh of this peer's directory entries.

        Routed through the channel: if this peer's CN has died, the refresh
        fails over to a live CN (re-opening the control connection there)
        instead of silently no-oping until the registrations expire.
        """
        if not self.online:
            return
        self.channel.refresh_registrations()

    def go_offline(self) -> None:
        """Disconnect: pause downloads, kill uploads, close the control conn."""
        if not self.online:
            return
        if self._refresh_event is not None:
            self._refresh_event.cancel()
            self._refresh_event = None
        # One settlement for the whole disconnect burst (pauses tear down
        # sessions, each upload abort frees shared links).
        with self.system.flows.batch():
            for session in list(self.sessions.values()):
                if session.state == "active":
                    session.pause()
                    self._paused_for_offline.append(session.obj.cid)
            # Uploads die with the connection: notify each downloader's
            # session so in-flight pieces are credited/requeued and
            # replacements sought.
            for flow in list(self.upload_flows):
                conn = flow.meta
                if conn is not None and hasattr(conn, "handle_uploader_offline"):
                    conn.handle_uploader_offline()
                else:
                    self.system.flows.abort_flow(flow)
        self.upload_flows.clear()
        self.active_upload_count = 0
        self.channel.reset()
        if self.cn is not None:
            self.cn.logout(self)
            self.cn = None
        self.online = False
        self.ip = ""

    def reconnect(self) -> None:
        """Re-open the control connection after a CN failure (§3.8)."""
        if not self.online:
            return
        self.channel.reconnect()

    def churn(self, downtime: float) -> None:
        """Knock an online peer offline for ``downtime`` seconds.

        The fault layer's churn storms use this: the machine drops exactly
        as a real disconnect does (downloads pause, uploads die, directory
        entries are withdrawn) and comes back through the normal
        :meth:`go_online` path after the gap.
        """
        if downtime < 0:
            raise ValueError(f"downtime must be non-negative, got {downtime}")
        if not self.online:
            return
        self.go_offline()
        self.system.sim.schedule(downtime, self.go_online)

    def rebind_nat(self, profile: NATProfile) -> None:
        """The NAT in front of this peer re-assigned its mapping.

        Existing transfers survive (established mappings persist); new
        hole-punch attempts see the new behaviour.  The directory keeps the
        stale reported type until the next registration refresh — the same
        window of inconsistency the production system tolerates.
        """
        self.nat_profile = profile
        self.nat_rebinds += 1

    # ----------------------------------------------------------------- downloads

    def start_download(self, obj: "ContentObject") -> "DownloadSession":
        """Begin downloading an object via the Download Manager (§3.3)."""
        from repro.core.swarm import DownloadSession

        if not self.online:
            raise RuntimeError(f"peer {self.guid[:8]} is offline")
        if obj.cid in self.sessions:
            return self.sessions[obj.cid]
        session = DownloadSession(self.system, self, obj)
        self.sessions[obj.cid] = session
        session.start()
        return session

    def session_finished(self, session: "DownloadSession") -> None:
        """Callback from a session reaching a terminal state."""
        self.sessions.pop(session.obj.cid, None)

    def cache_full(self) -> bool:
        """True when a storage-poor device tier holds its budget of
        ``cache_objects`` entries; every cache write tests this first."""
        budget = self.device.cache_objects if self.device is not None else None
        return budget is not None and len(self.cache) >= budget

    def add_to_cache(self, cid: str) -> None:
        """Cache a completed object; register it and schedule expiry (§3.9)."""
        now = self.system.sim.now
        if cid not in self.cache:
            # Storage-poor tiers hold only `cache_objects` entries: evict
            # the oldest (ties broken by cid, so both stores agree).
            while self.cache_full():
                oldest = min(self.cache.values(),
                             key=lambda e: (e.completed_at, e.cid))
                self._evict(oldest.cid)
        self.cache[cid] = CacheEntry(cid=cid, completed_at=now)
        retention = self.system.config.client.cache_retention
        self.system.sim.schedule(retention, lambda: self._evict(cid))
        if self.uploads_enabled:
            self.channel.register(cid, on_registered=lambda: self._mark_registered(cid))

    def _mark_registered(self, cid: str) -> None:
        entry = self.cache.get(cid)
        if entry is not None:
            entry.registered = True

    def _evict(self, cid: str) -> None:
        entry = self.cache.pop(cid, None)
        if entry is not None and entry.registered:
            if self.adversary_profile == "stale_advertiser":
                # Keeps advertising content it no longer holds: the entry
                # lives until the soft-state TTL reaps it, and every grant
                # attempt against it is an empty connection.
                return
            self.channel.unregister(cid)

    def has_complete(self, cid: str) -> bool:
        """Does the local cache hold a verified complete copy?"""
        return cid in self.cache

    # ------------------------------------------------------------------ uploads

    def upload_budget_left(self, cid: str) -> int:
        """Remaining upload sessions allowed for an object (§3.9 cap)."""
        cap = self.system.config.client.max_uploads_per_object
        return max(0, cap - self.uploads_done.get(cid, 0))

    def can_upload(self, cid: str) -> bool:
        """Would this peer currently grant an upload of ``cid``?"""
        return (
            self.online
            and self.uploads_enabled
            and self.has_complete(cid)
            and self.active_upload_count < self.system.config.client.max_upload_connections
            and self.upload_budget_left(cid) > 0
        )

    def try_grant_upload(self, cid: str) -> bool:
        """Reserve an upload slot for ``cid``; True if granted.

        Counts against both the global connection limit and the per-object
        upload budget.  When the budget hits zero the peer withdraws the
        object from the directory.
        """
        if self.adversary_profile == "free_rider":
            # Registers with the directory but refuses every grant: the
            # downloader burns a candidate slot and records a refusal.
            return False
        if not self.can_upload(cid):
            return False
        self.active_upload_count += 1
        self.uploads_done[cid] = self.uploads_done.get(cid, 0) + 1
        if self.upload_budget_left(cid) == 0:
            self.channel.unregister(cid)
        return True

    def release_upload(self) -> None:
        """Free an upload slot (connection closed)."""
        if self.active_upload_count > 0:
            self.active_upload_count -= 1

    def upload_rate_cap(self) -> float:
        """Current per-flow upload rate cap in bytes/s (§3.9 throttling)."""
        fraction = (BACKOFF_RATE_FRACTION if self.link_busy
                    else self.system.config.client.upload_rate_fraction)
        # adversary_slow_factor is 1.0 for honest peers; a slow-loris peer
        # trickles at a tiny fraction of its honest cap, pinning the
        # downloader's connection slot.
        rate = fraction * self.link.up_bps * self.adversary_slow_factor
        if self.device is not None and self.device.uplink_cap_bps is not None:
            # Device-tier budget (router QoS carve-out, cellular friendliness)
            # caps the throttled rate, never the other way around.
            rate = min(rate, self.device.uplink_cap_bps)
        return max(1.0, rate)

    def set_link_busy(self, busy: bool) -> None:
        """User traffic appeared/cleared on the link: re-throttle uploads."""
        if busy == self.link_busy:
            return
        self.link_busy = busy
        cap = self.upload_rate_cap()
        with self.system.flows.batch():
            for flow in self.upload_flows:
                if flow.active:
                    self.system.flows.set_cap(flow, cap)

    # ---------------------------------------------------------------- settings

    def set_uploads_enabled(self, enabled: bool) -> None:
        """The user toggles peer uploads in the preferences UI (§3.4).

        Disabling withdraws all directory registrations; in-flight uploads
        are allowed to finish (NetSession does not yank bytes mid-transfer).
        Re-enabling re-registers the cache.
        """
        if enabled == self.uploads_enabled:
            return
        self.uploads_enabled = enabled
        self.setting_changes += 1
        if not self.online:
            return
        if enabled:
            for cid in self.shareable_cids():
                self.channel.register(
                    cid, on_registered=lambda c=cid: self._mark_registered(c)
                )
        else:
            for entry in self.cache.values():
                if entry.registered:
                    self.channel.unregister(entry.cid)
                    entry.registered = False

    # ------------------------------------------------------------ control plane

    def shareable_cids(self) -> list[str]:
        """Objects this peer would serve right now (directory contents)."""
        if not self.uploads_enabled:
            return []
        return [cid for cid in self.cache if self.upload_budget_left(cid) > 0]

    def handle_re_add(self) -> list[str]:
        """Answer a RE-ADD broadcast: re-list stored files (§3.8)."""
        return self.shareable_cids()

    # ----------------------------------------------------------------- mobility

    def move_to(self, country: "Country", city: "City", asys: "AutonomousSystem") -> None:
        """Relocate the machine (laptop commute, travel, VPN exit change).

        Implemented as the real event sequence: drop connectivity at the old
        location, change attachment, reconnect — which produces exactly the
        login-record pattern the §6.2 mobility analysis keys on.
        """
        was_online = self.online
        if was_online:
            self.go_offline()
        self.country = country
        self.city = city
        self.asys = asys
        if was_online:
            self.go_online()

    # ----------------------------------------------------------------- cloning

    def snapshot_identity(self) -> IdentitySnapshot:
        """Capture what a disk image would capture (primary GUID + history)."""
        return IdentitySnapshot(
            guid=self.guid,
            secondary_history=tuple(self.secondary_history),
        )

    def restore_identity(self, snapshot: IdentitySnapshot) -> None:
        """Roll this installation back to an imaged state (re-imaging, §6.2)."""
        self.guid = snapshot.guid
        self.secondary_history = deque(
            snapshot.secondary_history, maxlen=SECONDARY_HISTORY_LENGTH
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "online" if self.online else "offline"
        return f"<PeerNode {self.guid[:8]} {self.country_code}/AS{self.asn} {state}>"
