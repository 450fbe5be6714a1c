"""Connection nodes: the peers' endpoint into the control plane (paper §3.6).

A CN terminates the persistent TCP connections of up to ~150,000 peers.  It
receives logins and usage statistics, answers object queries by consulting
its *local* database nodes, instructs peer pairs to connect to each other,
and — after a DN failure — broadcasts RE-ADD so the peers repopulate the
directory from their own state (§3.8).

The peer objects a CN holds must provide the small protocol documented in
:class:`repro.core.peer.PeerNode`: identity (``guid``, ``ip``), locality
(``asn``, ``country_code``, ``geo_region``), connectivity (``nat_profile``),
preferences (``uploads_enabled``), ``shareable_cids()`` and the
``channel`` its RE-ADD replies ride.

Queries compose the plane's candidate stages (``ControlPlane.stages``)
into one :func:`~repro.core.selection.select_peers` call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.records import LoginRecord, RegistrationRecord
from repro.core.control.database_node import DatabaseNode, PeerRegistration
from repro.core.edge import AuthToken
from repro.core.messages import PeerCandidate, PeerQueryResponse, UsageReport
from repro.core.selection import QueryContext, compose_stages, select_peers

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.control.plane import ControlPlane
    from repro.core.peer import PeerNode

__all__ = ["ConnectionNode"]


class ConnectionNode:
    """One CN: login handling, peer queries, usage collection."""

    def __init__(
        self,
        name: str,
        network_region: str,
        local_dns: list[DatabaseNode],
        plane: "ControlPlane",
    ):
        if not local_dns:
            raise ValueError(f"CN {name} needs at least one local DN")
        self.name = name
        self.network_region = network_region
        self.local_dns = local_dns
        self.plane = plane
        self.alive = True
        self.connected: dict[str, "PeerNode"] = {}

    # ----------------------------------------------------------------- login

    def login(self, peer: "PeerNode", now: float) -> None:
        """Accept a peer's persistent connection.

        Runs a STUN probe, records the login (Table 1's login entries), and
        registers whatever complete objects the peer is willing to share.
        """
        if not self.alive:
            raise ConnectionError(f"CN {self.name} is down")
        self.connected[peer.guid] = peer
        self.plane.stun.probe(peer.nat_profile)
        self.plane.logstore.add_login(LoginRecord(
            guid=peer.guid,
            ip=peer.ip,
            timestamp=now,
            software_version=peer.software_version,
            uploads_enabled=peer.uploads_enabled,
            secondary_guids=tuple(peer.secondary_history),
        ))
        if peer.uploads_enabled:
            for cid in peer.shareable_cids():
                self.register_content(peer, cid, now)

    def logout(self, peer: "PeerNode") -> None:
        """Peer closed its connection; drop its directory entries."""
        self.connected.pop(peer.guid, None)
        for dn in self.local_dns:
            dn.unregister_peer(peer.guid)

    # -------------------------------------------------------------- directory

    def _dn_for(self, cid: str) -> DatabaseNode | None:
        """Deterministically map a cid to one of the local (alive) DNs."""
        alive = [dn for dn in self.local_dns if dn.alive]
        if not alive:
            return None
        # Stable hash (cids are hex) so the cid->DN mapping is reproducible
        # across processes regardless of PYTHONHASHSEED.
        return alive[int(cid[:8], 16) % len(alive)]

    def register_content(self, peer: "PeerNode", cid: str, now: float) -> None:
        """Record that ``peer`` holds a complete copy of ``cid``."""
        if not peer.uploads_enabled:
            return
        reputation = self.plane.reputation
        if reputation is not None and reputation.is_quarantined(peer.guid, now):
            # Quarantined peers stay out of the directory: eviction would be
            # pointless if the next refresh re-registered them.
            return
        dn = self._dn_for(cid)
        if dn is None:
            return
        added = dn.register(PeerRegistration(
            guid=peer.guid,
            cid=cid,
            asn=peer.asn,
            country_code=peer.country_code,
            region=peer.geo_region,
            nat_reported=peer.nat_profile.reported_type.value,
            uploads_enabled=peer.uploads_enabled,
            registered_at=now,
            refreshed_at=now,
            lan_id=peer.lan_id,
            device_class=peer.device_class,
        ))
        if added:
            self.plane.logstore.add_registration(RegistrationRecord(
                guid=peer.guid, cid=cid, timestamp=now,
                network_region=self.network_region,
            ))

    def unregister_content(self, peer: "PeerNode", cid: str) -> None:
        """Remove a (peer, object) directory entry (evicted, budget spent)."""
        for dn in self.local_dns:
            dn.unregister(peer.guid, cid)

    # ----------------------------------------------------------------- query

    def query(
        self,
        peer: "PeerNode",
        cid: str,
        token: AuthToken,
        exclude: frozenset[str] = frozenset(),
    ) -> PeerQueryResponse:
        """Answer a peer's request for upload candidates (§3.7).

        Verifies the edge-issued authorization token first (§3.5: tokens
        prevent users from obtaining content from peers that they are not
        authorized to get from the infrastructure).  The CN keeps no
        per-download state: Figure 6's "peers initially returned" is the
        size of the first response, recorded by the requesting
        :class:`~repro.core.swarm.DownloadSession`.
        """
        if not self.alive:
            raise ConnectionError(f"CN {self.name} is down")
        plane = self.plane
        if not plane.edge.verify_token(token, peer.guid, cid):
            return PeerQueryResponse(cid=cid, candidates=())
        dn = self._dn_for(cid)
        if dn is None:
            return PeerQueryResponse(cid=cid, candidates=())

        context = QueryContext(
            guid=peer.guid,
            asn=peer.asn,
            country_code=peer.country_code,
            region=peer.geo_region,
            nat_reported=peer.nat_profile.reported_type.value,
            lan_id=peer.lan_id,
        )
        config = plane.config.control_plane
        stages = plane.stages
        pool = dn.peers_for(cid)
        # Widen to remote regions when the local directory is thin (§3.7)
        # and no stage vetoes it.  With locality disabled (ablation), the
        # structural level is ablated too: candidates always come from the
        # whole interconnected CN/DN system, not just the local region.
        threshold = config.remote_search_threshold
        widen = (
            (threshold > 0 and len(pool) < threshold) or not plane.locality_aware
        )
        if widen and all(s.allow_widening(context, cid) for s in stages):
            pool = pool + plane.remote_peers_for(cid, self.network_region)
        now = plane.sim.now
        candidate_filter, rank_key = compose_stages(stages, now)
        selected = select_peers(
            pool,
            context,
            config.peers_per_query,
            plane.rng,
            exclude=exclude,
            diversity_probability=config.diversity_probability,
            locality_aware=plane.locality_aware,
            candidate_filter=candidate_filter,
            rank_key=rank_key,
        )
        reputation = plane.reputation
        if reputation is not None:
            # The quarantined-never-selected audit: the filter above must
            # make this dead code; the counter proves it stayed that way.
            for reg in selected:
                if reputation.is_quarantined(reg.guid, now):
                    reputation.stats.quarantine_leaks += 1
        for reg in selected:
            dn.rotate_to_end(cid, reg.guid)

        candidates = tuple(
            PeerCandidate(guid=r.guid, ip="", asn=r.asn, nat_type=r.nat_reported)
            for r in selected
        )
        return PeerQueryResponse(cid=cid, candidates=candidates)

    # ------------------------------------------------------------ accounting

    def report_usage(self, report: UsageReport) -> bool:
        """Ingest a peer's usage report; returns False if it was rejected.

        Validation (cross-check against trusted edge logs) happens in the
        accounting service; rejected reports are still counted there for the
        §6.2 attack analysis but do not reach billing.  Accepted reports
        additionally feed the reputation engine (when the defense is on):
        the per-uploader contribution and misbehavior observations ride the
        same RPC the peer already sends — and because rejected reports stop
        here, an accounting inflator can't poison anyone's score.
        """
        accepted = self.plane.accounting.ingest(report)
        reputation = self.plane.reputation
        if accepted and reputation is not None:
            reputation.ingest_report(report, self.plane.sim.now)
        return accepted

    # -------------------------------------------------------------- failures

    def fail(self) -> list["PeerNode"]:
        """Crash this CN.  Returns the peers that must reconnect elsewhere."""
        self.alive = False
        orphans = list(self.connected.values())
        self.connected.clear()
        for dn in self.local_dns:
            for peer in orphans:
                dn.unregister_peer(peer.guid)
        return orphans

    def recover(self) -> None:
        """Restart the CN (empty connection table)."""
        self.alive = True

    def broadcast_re_add(self) -> int:
        """Ask every connected peer to re-list its files (§3.8 RE-ADD).

        The exchange rides each peer's control channel, so replies can be
        delayed or lost under an active fault (the periodic registration
        refresh heals any gap).  Returns the number of peers that answered.
        """
        answered = 0
        for peer in list(self.connected.values()):
            if peer.channel.answer_re_add(self):
                answered += 1
        return answered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CN {self.name} region={self.network_region} peers={len(self.connected)}>"
