"""The NetSession control plane: CN/DN assembly, mapping, and robustness.

Assembles the per-region connection nodes and database nodes, maps each
peer to a CN in its network region (standing in for Akamai's DNS-based
mapping, §3.7), and implements the §3.8 robustness story:

* **CN failure** — connected peers simply reconnect to another CN; during a
  large-scale failure reconnections are rate-limited for smooth recovery;
* **DN failure** — soft state is lost; the region's CNs broadcast RE-ADD and
  peers re-list their stored files, repopulating the directory;
* **total control-plane failure** — peers that cannot reach any CN fall back
  to edge-only downloads (handled in the peer; tested in the failure suite);
* **soft-state expiry** — registrations not refreshed within the TTL are
  dropped on a periodic sweep.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.analysis.logstore import LogStore
from repro.core.config import SystemConfig
from repro.core.control.connection_node import ConnectionNode
from repro.core.control.database_node import DatabaseNode
from repro.core.control.stun import StunService
from repro.core.edge import EdgeNetwork
from repro.core.selection import CandidateStage
from repro.net.sim import Simulator

#: Control-plane deployment density, per network region.  The real
#: deployment ran 197 control-plane servers over <20 network regions; one
#: CN/DN pair per region is the scale-appropriate default.
CNS_PER_REGION = 1
DNS_PER_REGION = 1

#: Candidate-stage order by ``kind``, whatever the install order: class
#: weight dominates the rank and the score breaks ties; the quarantine gate
#: filters first, so a refused peer is never counted as policy-filtered.
STAGE_ORDER = ("device", "reputation", "policy")

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.accounting import AccountingService
    from repro.core.peer import PeerNode

__all__ = ["STAGE_ORDER", "ControlPlane"]


class ControlPlane:
    """All control-plane servers plus the peer↔CN mapping logic."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        edge: EdgeNetwork,
        logstore: LogStore,
        accounting: "AccountingService",
        network_regions: list[str],
        rng: random.Random,
        *,
        locality_aware: bool = True,
    ):
        if not network_regions:
            raise ValueError("control plane needs at least one network region")
        self.sim = sim
        self.config = config
        self.edge = edge
        self.logstore = logstore
        self.accounting = accounting
        self.rng = rng
        self.locality_aware = locality_aware
        self.stun = StunService()
        self._stage_slots = dict.fromkeys(STAGE_ORDER)
        #: The installed candidate stages in :data:`STAGE_ORDER`.
        self.stages: tuple[CandidateStage, ...] = ()

        self.dns_by_region: dict[str, list[DatabaseNode]] = {}
        self.cns_by_region: dict[str, list[ConnectionNode]] = {}
        self.all_cns: list[ConnectionNode] = []
        self.all_dns: list[DatabaseNode] = []
        for region in network_regions:
            dns = [
                DatabaseNode(
                    f"dn-{region}-{i}", region,
                    config.control_plane.registration_ttl,
                )
                for i in range(DNS_PER_REGION)
            ]
            self.dns_by_region[region] = dns
            self.all_dns.extend(dns)
            cns = [
                ConnectionNode(f"cn-{region}-{i}", region, dns, self)
                for i in range(CNS_PER_REGION)
            ]
            self.cns_by_region[region] = cns
            self.all_cns.extend(cns)

        #: Tokens available for rate-limited reconnection (§3.8).
        self._reconnect_tokens = config.control_plane.reconnect_rate_limit
        self._last_token_refill = sim.now

        # Periodic soft-state expiry sweep (hourly).
        sim.every(3600.0, self._expire_sweep)

    # ----------------------------------------------------- candidate stages

    def install_stage(self, stage: CandidateStage) -> None:
        """Put ``stage`` in its ``kind``'s slot, replacing what was there."""
        if stage.kind not in self._stage_slots:
            raise ValueError(f"unknown candidate stage kind {stage.kind!r}")
        self._stage_slots[stage.kind] = stage
        self.stages = tuple(s for s in self._stage_slots.values()
                            if s is not None)

    @property
    def reputation(self):
        """The reputation stage (None without the defense), for the CN's
        registration gate, usage feed and quarantine-leak audit."""
        return self._stage_slots["reputation"]

    # --------------------------------------------------------------- mapping

    def cn_for(self, peer: "PeerNode") -> ConnectionNode | None:
        """Map a peer to an alive CN, preferring its own network region.

        Akamai's DNS maps each peer to the closest available CN (§3.7); if
        the local region's CNs are all down, any alive CN elsewhere is used;
        if none is alive anywhere, returns None (edge-only fallback, §3.8).
        """
        local = [cn for cn in self.cns_by_region.get(peer.network_region, ())
                 if cn.alive]
        if local:
            return self.rng.choice(local)
        anywhere = [cn for cn in self.all_cns if cn.alive]
        if anywhere:
            return self.rng.choice(anywhere)
        return None

    # -------------------------------------------------------------- failures

    def fail_cn(self, cn: ConnectionNode) -> int:
        """Crash a CN; orphaned peers reconnect elsewhere, rate-limited.

        Returns the number of orphaned peers scheduled for reconnection.
        """
        return self.schedule_reconnects(cn.fail())

    def recover_cn(self, cn: ConnectionNode) -> None:
        """Restart a crashed CN (ops bring the node back; §3.8)."""
        cn.recover()

    def schedule_reconnects(self, peers: list["PeerNode"]) -> int:
        """Schedule rate-limited reconnections for ``peers`` (§3.8).

        The shared token bucket smooths recovery after large-scale failures:
        a burst up to the limit reconnects within seconds, the rest is
        spread at the limit rate.  Used after CN crashes and when service is
        restored after a control-plane blackout.
        """
        self._refill_tokens()
        delay = 0.0
        rate = self.config.control_plane.reconnect_rate_limit
        for peer in peers:
            if self._reconnect_tokens >= 1:
                self._reconnect_tokens -= 1
                jitter = self.rng.uniform(0.0, 2.0)
            else:
                # Past the burst budget: spread reconnects at the limit rate.
                delay += 1.0 / rate
                jitter = delay + self.rng.uniform(0.0, 2.0)
            self.sim.schedule(jitter, peer.reconnect)
        return len(peers)

    def fail_dn(self, dn: DatabaseNode, *, recover: bool = True) -> int:
        """Crash a DN, losing its soft state; optionally recover via RE-ADD.

        Returns the number of peers that answered the RE-ADD broadcast.
        """
        dn.fail()
        if not recover:
            return 0
        dn.recover()
        answered = 0
        for cn in self.cns_by_region.get(dn.network_region, ()):
            if cn.alive:
                answered += cn.broadcast_re_add()
        return answered

    def blackout(self, network_region: str | None = None) -> int:
        """Take down every CN and DN (in one region, or everywhere).

        Directory soft state is lost with the DNs.  If any CN survives
        elsewhere (regional blackout), the orphaned peers are reconnected to
        it rate-limited; in a total blackout there is nothing to reconnect
        to and peers fall back to edge-only delivery (§3.8) until
        :meth:`restore`.  Returns the number of orphaned peers.
        """
        orphans: list["PeerNode"] = []
        for cn in self.all_cns:
            if cn.alive and (network_region is None or cn.network_region == network_region):
                orphans.extend(cn.fail())
        for dn in self.all_dns:
            if dn.alive and (network_region is None or dn.network_region == network_region):
                dn.fail()
        if any(cn.alive for cn in self.all_cns):
            self.schedule_reconnects(orphans)
        return len(orphans)

    def restore(self, network_region: str | None = None,
                peers: list["PeerNode"] | None = None) -> int:
        """Bring a blacked-out control plane back (in one region, or all).

        DNs recover empty — their soft state is rebuilt by the peers, via
        the registrations each login performs and the periodic refresh
        (the RE-ADD path, §3.8).  ``peers`` are the clients to reconnect,
        rate-limited; pass the online peers that lost their CN.  Returns
        the number of reconnections scheduled.
        """
        for dn in self.all_dns:
            if not dn.alive and (network_region is None or dn.network_region == network_region):
                dn.recover()
        for cn in self.all_cns:
            if not cn.alive and (network_region is None or cn.network_region == network_region):
                cn.recover()
        if peers is None:
            return 0
        return self.reconnect_stranded(peers)

    def reconnect_stranded(self, peers: list["PeerNode"]) -> int:
        """Reconnect the online peers in ``peers`` that lost their CN.

        A recovered CN restarts with an empty connection table, so a
        peer's stale ``cn`` reference may look alive again — membership
        in the table is the ground truth for "still connected".
        """
        stranded = [
            p for p in peers
            if p.online and (
                p.cn is None or not p.cn.alive or p.guid not in p.cn.connected
            )
        ]
        return self.schedule_reconnects(stranded)

    def _refill_tokens(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_token_refill
        rate = self.config.control_plane.reconnect_rate_limit
        self._reconnect_tokens = min(rate, self._reconnect_tokens + elapsed * rate)
        self._last_token_refill = now

    def remote_peers_for(self, cid: str, exclude_region: str) -> list:
        """Cross-region directory search (§3.7's interconnected CN/DN)."""
        found = []
        for region, dns in self.dns_by_region.items():
            if region == exclude_region:
                continue
            for dn in dns:
                if dn.alive:
                    found.extend(dn.peers_for(cid))
        return found

    def _expire_sweep(self) -> None:
        for dn in self.all_dns:
            dn.expire(self.sim.now)

    # --------------------------------------------------------------- queries

    def connected_peer_count(self) -> int:
        """Peers currently holding a control connection, fleet-wide."""
        return sum(len(cn.connected) for cn in self.all_cns)

    def total_registrations(self) -> int:
        """Directory entries across all DNs."""
        return sum(dn.total_registrations() for dn in self.all_dns)
