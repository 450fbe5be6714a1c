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
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.analysis.logstore import LogStore
from repro.analysis.records import LoginRecord, RegistrationRecord
from repro.core.config import ControlPlaneConfig
from repro.core.control.database_node import DatabaseNode, PeerRegistration
from repro.core.control.stun import StunService
from repro.core.edge import AuthToken, EdgeNetwork
from repro.core.messages import PeerCandidate, PeerQueryResponse, UsageReport
from repro.core.selection import QueryContext, device_rank_key, select_peers

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.accounting import AccountingService
    from repro.core.peer import PeerNode

__all__ = ["ConnectionNode"]


def _compose_admission(policy_admits, reputation, now):
    """Serving-policy filter ∧ reputation quarantine gate."""
    if policy_admits is None:
        return lambda query, reg: reputation.admits(reg.guid, now)
    return lambda query, reg: (
        reputation.admits(reg.guid, now) and policy_admits(query, reg)
    )


class ConnectionNode:
    """One CN: login handling, peer queries, usage collection."""

    def __init__(
        self,
        name: str,
        network_region: str,
        local_dns: list[DatabaseNode],
        edge: EdgeNetwork,
        stun: StunService,
        logstore: LogStore,
        accounting: "AccountingService",
        config: ControlPlaneConfig,
        rng: random.Random,
        *,
        locality_aware: bool = True,
    ):
        if not local_dns:
            raise ValueError(f"CN {name} needs at least one local DN")
        self.name = name
        self.network_region = network_region
        self.local_dns = local_dns
        self.edge = edge
        self.stun = stun
        self.logstore = logstore
        self.accounting = accounting
        self.config = config
        self.rng = rng
        self.locality_aware = locality_aware
        self.alive = True
        self.connected: dict[str, "PeerNode"] = {}
        #: Set by the control plane: callable(cid, exclude_region) returning
        #: registrations from remote regions (§3.7: the CN/DN system is
        #: interconnected, so cross-region search is possible).
        self.remote_lookup = None
        #: Optional serving policy (see :mod:`repro.vod.policy`): filters
        #: candidates and can veto cross-region widening for the cids it
        #: governs.  None (the default) changes nothing.
        self.serving_policy = None
        #: Optional reputation engine (see :mod:`repro.adversary.reputation`),
        #: installed by the system when ``SystemConfig.defense.enabled``:
        #: quarantined peers are filtered out of (and evicted from) the
        #: directory and candidates are ranked by score.  None = no defense.
        self.reputation = None
        #: Optional device-tier ranking weights (class name -> weight),
        #: installed by population synthesis when a device mix declares
        #: non-zero selection weights.  Composes with the reputation rank
        #: (class dominates, score breaks ties).  None = class-blind.
        self.device_rank_weights = None

    # ----------------------------------------------------------------- login

    def login(self, peer: "PeerNode", now: float) -> None:
        """Accept a peer's persistent connection.

        Runs a STUN probe, records the login (Table 1's login entries), and
        registers whatever complete objects the peer is willing to share.
        """
        if not self.alive:
            raise ConnectionError(f"CN {self.name} is down")
        self.connected[peer.guid] = peer
        self.stun.probe(peer.nat_profile)
        self.logstore.add_login(LoginRecord(
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
        if (self.reputation is not None
                and self.reputation.is_quarantined(peer.guid, now)):
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
            self.logstore.add_registration(RegistrationRecord(
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
        if not self.edge.verify_token(token, peer.guid, cid):
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
        pool = dn.peers_for(cid)
        # Widen to remote regions when the local directory is thin (§3.7).
        # With locality disabled (ablation), the structural level is ablated
        # too: candidates always come from the whole interconnected CN/DN
        # system, not just the local region.
        policy = self.serving_policy
        threshold = self.config.remote_search_threshold
        widen = (
            (threshold > 0 and len(pool) < threshold) or not self.locality_aware
        )
        if widen and policy is not None and not policy.allow_widening(
                context, cid):
            widen = False  # e.g. isp_local: remote regions stay closed
        if widen and self.remote_lookup is not None:
            pool = pool + self.remote_lookup(cid, self.network_region)
        # Compose the serving-policy filter with the reputation gate and
        # ranking.  Both hooks are None by default, in which case the call
        # below is identical (argument-for-argument) to the undefended one.
        candidate_filter = policy.admits if policy is not None else None
        rank_key = None
        reputation = self.reputation
        if reputation is not None:
            now = reputation.clock()
            rank_key = reputation.rank_key(now)
            candidate_filter = _compose_admission(
                candidate_filter, reputation, now)
        if self.device_rank_weights is not None:
            rank_key = device_rank_key(self.device_rank_weights, rank_key)
        selected = select_peers(
            pool,
            context,
            self.config.peers_per_query,
            self.rng,
            exclude=exclude,
            diversity_probability=self.config.diversity_probability,
            locality_aware=self.locality_aware,
            candidate_filter=candidate_filter,
            rank_key=rank_key,
        )
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
        accepted = self.accounting.ingest(report)
        if accepted and self.reputation is not None:
            self.reputation.ingest_report(report, self.reputation.clock())
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
