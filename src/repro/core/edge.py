"""Edge servers: the infrastructure half of the hybrid CDN.

Edge servers (paper §3.5) do four things for NetSession beyond serving
bytes over HTTP(S):

* **content integrity** — they generate and publish the secure content IDs
  and per-piece hashes that let peers verify pieces from any source (the
  swarm layer models verification as a per-piece corruption draw);
* **authorization** — a peer must authenticate to an edge server to obtain
  an encrypted token before it may search for (or receive from) peers;
* **policy distribution** — per-provider download/upload policies reach
  peers through this trusted channel;
* **trusted accounting ground truth** — edge servers log the bytes they
  serve, which the accounting layer uses to detect misreporting peers
  (§3.5, §6.2).

The infrastructure is assumed well provisioned (the paper's edge-only
downloads run at client line rate), so egress capacity is unconstrained by
default; a finite capacity can be configured for backstop-stress ablations.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.core.content import ContentObject
from repro.net.flows import Resource
from repro.net.links import mbps

__all__ = ["EdgeServer", "EdgeNetwork", "AuthToken", "AuthorizationError"]

#: Edge servers per network region in a scenario's deployment.
SERVERS_PER_REGION = 2


class AuthorizationError(Exception):
    """Raised when a peer requests content its provider's policy forbids."""


@dataclass(frozen=True)
class AuthToken:
    """Encrypted token allowing a peer to search for peers holding a cid.

    In the real system this is an opaque encrypted blob; here it is a keyed
    digest the control plane can verify, which is behaviourally equivalent:
    a peer cannot forge a token for content it was not authorized to fetch.
    """

    guid: str
    cid: str
    digest: str

    @staticmethod
    def issue(guid: str, cid: str, secret: str) -> "AuthToken":
        """Create a token for (guid, cid) under the CDN's signing secret."""
        digest = hashlib.sha256(f"{secret}|{guid}|{cid}".encode()).hexdigest()[:32]
        return AuthToken(guid=guid, cid=cid, digest=digest)

    def valid_for(self, guid: str, cid: str, secret: str) -> bool:
        """Verify the token binds to this peer and content under ``secret``."""
        if guid != self.guid or cid != self.cid:
            return False
        expect = hashlib.sha256(f"{secret}|{guid}|{cid}".encode()).hexdigest()[:32]
        return expect == self.digest


class EdgeServer:
    """One edge server: an egress capacity plus byte-serving logs."""

    #: Egress assumed for an unconstrained server when a brownout needs a
    #: concrete baseline to scale from (a well-provisioned 10 Gbit/s server).
    ASSUMED_EGRESS_MBPS = 10_000.0

    def __init__(self, name: str, network_region: str, egress_mbps: float | None):
        self.name = name
        self.network_region = network_region
        capacity = None if egress_mbps is None else mbps(egress_mbps)
        # Resource(None) models an overprovisioned server that never
        # bottlenecks an individual client download.
        self.egress = Resource(f"edge:{name}", capacity)
        #: While a brownout fault degrades this server, the original egress
        #: capacity (possibly None = unconstrained); cleared on recovery.
        self.pre_brownout: tuple[float | None] | None = None
        #: Trusted per-(guid, cid) byte counts — accounting ground truth.
        self.served_bytes: dict[tuple[str, str], int] = {}

    def record_served(self, guid: str, cid: str, nbytes: int) -> None:
        """Log bytes served to a peer (called as edge flows complete)."""
        if nbytes < 0:
            raise ValueError(f"cannot serve negative bytes: {nbytes}")
        key = (guid, cid)
        self.served_bytes[key] = self.served_bytes.get(key, 0) + int(nbytes)

    @property
    def browned_out(self) -> bool:
        """Is a brownout fault currently degrading this server?"""
        return self.pre_brownout is not None

    def apply_brownout(self, flows, capacity_factor: float) -> bool:
        """Degrade this server's egress to ``capacity_factor`` of normal.

        Models partial infrastructure failure (overload, a rack down behind
        the VIP): the server keeps serving, slowly.  An unconstrained server
        is scaled from :attr:`ASSUMED_EGRESS_MBPS`.  Flows started while the
        brownout holds contend for the reduced egress; flows already in
        flight on a previously *unconstrained* server keep their rate (they
        were admitted without traversing the egress resource).  Returns
        False if already browned out — brownouts do not stack.
        """
        if self.browned_out:
            return False
        self.pre_brownout = (self.egress.capacity,)
        baseline = self.egress.capacity
        if baseline is None:
            baseline = mbps(self.ASSUMED_EGRESS_MBPS)
        flows.set_resource_capacity(self.egress, max(1.0, baseline * capacity_factor))
        return True

    def clear_brownout(self, flows) -> bool:
        """Undo :meth:`apply_brownout`, restoring the original egress."""
        if self.pre_brownout is None:
            return False
        (capacity,) = self.pre_brownout
        self.pre_brownout = None
        flows.set_resource_capacity(self.egress, capacity)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EdgeServer {self.name} region={self.network_region}>"


class EdgeNetwork:
    """The fleet of edge servers plus the catalog of published content.

    Maps each peer to a server in its network region (Akamai's DNS-based
    mapping, §3.7) and answers authorization and integrity queries.
    """

    def __init__(
        self,
        network_regions: list[str],
        rng: random.Random,
        *,
        servers_per_region: int = SERVERS_PER_REGION,
        egress_mbps: float | None = None,
        signing_secret: str = "netsession-secret",
    ):
        if servers_per_region <= 0:
            raise ValueError("need at least one edge server per region")
        self._rng = rng
        self._secret = signing_secret
        self.servers: list[EdgeServer] = []
        self._by_region: dict[str, list[EdgeServer]] = {}
        self._rr_index: dict[str, int] = {}
        for region in network_regions:
            group = [
                EdgeServer(f"{region}-{i}", region, egress_mbps)
                for i in range(servers_per_region)
            ]
            self._by_region[region] = group
            self._rr_index[region] = 0
            self.servers.extend(group)
        self.catalog: dict[str, ContentObject] = {}

    # --------------------------------------------------------------- content

    def publish(self, obj: ContentObject) -> None:
        """Make an object available for download (provider onboarding)."""
        self.catalog[obj.cid] = obj

    def lookup(self, cid: str) -> ContentObject:
        """Fetch the catalog entry; KeyError if not published."""
        return self.catalog[cid]

    def servers_in(self, network_region: str | None) -> list[EdgeServer]:
        """The servers in a network region; all servers when region is None."""
        if network_region is None:
            return list(self.servers)
        return list(self._by_region.get(network_region, ()))

    # ----------------------------------------------------------- interaction

    def server_for(self, network_region: str) -> EdgeServer:
        """Pick the edge server a peer in ``network_region`` downloads from.

        Round-robin within the region's group; falls back to a random server
        anywhere if the region has no local group (sparse-infrastructure
        areas — relevant to the §5.3 coverage analysis).
        """
        group = self._by_region.get(network_region)
        if not group:
            return self._rng.choice(self.servers)
        index = self._rr_index[network_region]
        self._rr_index[network_region] = (index + 1) % len(group)
        return group[index]

    def authorize(self, guid: str, obj: ContentObject) -> AuthToken:
        """Authenticate a peer for an object and issue a search token (§3.5).

        Raises :class:`AuthorizationError` if the object is not published.
        """
        if obj.cid not in self.catalog:
            raise AuthorizationError(f"object {obj.cid} is not published")
        return AuthToken.issue(guid, obj.cid, self._secret)

    def verify_token(self, token: AuthToken, guid: str, cid: str) -> bool:
        """Control-plane-side token check before answering a peer query."""
        return token.valid_for(guid, cid, self._secret)

    def trusted_bytes_served(self, guid: str, cid: str) -> int:
        """Total bytes the infrastructure served to (guid, cid), fleet-wide."""
        return sum(s.served_bytes.get((guid, cid), 0) for s in self.servers)
