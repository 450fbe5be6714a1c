"""Control-plane protocol messages.

Peers talk to the control plane over a persistent TCP connection (paper
§3.4).  Two payloads cross it: the connection node's answer to a content
query, and the usage report a peer uploads for accounting after each
download.

In the simulation these are plain dataclasses passed through method calls —
the value of modelling them explicitly is that the log records, the
accounting checks, and the reputation engine all operate on the same
payloads a wire protocol would carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PeerCandidate", "PeerQueryResponse", "UsageReport"]


@dataclass(frozen=True)
class PeerCandidate:
    """One peer in a query response."""

    guid: str
    ip: str
    asn: int
    nat_type: str


@dataclass(frozen=True)
class PeerQueryResponse:
    """The control plane's answer to a content query."""

    cid: str
    candidates: tuple[PeerCandidate, ...]


@dataclass(frozen=True)
class UsageReport:
    """Per-download statistics a peer uploads for billing/monitoring (§3.4).

    ``claimed_*`` fields are what the peer says; the accounting layer
    cross-checks them against trusted edge-server records to filter
    accounting attacks (§3.5, [Aditya et al., NSDI 2012]).
    """

    guid: str
    cid: str
    cp_code: int
    started_at: float
    ended_at: float
    claimed_edge_bytes: int
    claimed_peer_bytes: int
    #: Bytes received from each uploading peer, keyed by uploader GUID.
    per_uploader_bytes: dict[str, int] = field(default_factory=dict)
    outcome: str = "completed"  # completed | failed | aborted
    failure_class: str | None = None  # "system" | "other" | None
    # Per-uploader misbehavior observations, keyed by uploader GUID.  These
    # feed the CN-side reputation engine (repro.adversary.reputation) when
    # the defense is enabled; accepted reports only, so accounting-rejected
    # (inflated) reports can't poison anyone's score.
    #: Hash-verification failures attributed to each uploader.
    per_uploader_corrupt: dict[str, int] = field(default_factory=dict)
    #: Refused or empty connections (grant denied / nothing served).
    per_uploader_refusals: dict[str, int] = field(default_factory=dict)
    #: Serves that ended below the slow-rate floor (slow-loris signature).
    per_uploader_slow: dict[str, int] = field(default_factory=dict)
