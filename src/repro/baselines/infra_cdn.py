"""Pure infrastructure-CDN baseline.

The paper's design space (§2.1) has the classic Akamai CDN at one end:
every byte comes from managed edge servers.  NetSession degrades to exactly
this when the control plane is unreachable or p2p is globally disabled
(§3.8), so the baseline reuses the full system with
``p2p_globally_enabled=False`` — same edge network, same clients, same
logs — making cost/QoS comparisons apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.logstore import LogStore
from repro.analysis.records import OUTCOME_COMPLETED

__all__ = ["InfraCostReport", "infrastructure_cost"]


@dataclass
class InfraCostReport:
    """Infrastructure load for a trace: what the CDN operator pays for."""

    edge_bytes: int
    peer_bytes: int
    downloads: int
    completed: int

    @property
    def edge_share(self) -> float:
        """Fraction of delivered bytes that the infrastructure served."""
        total = self.edge_bytes + self.peer_bytes
        return self.edge_bytes / total if total else 0.0

    @property
    def completion_rate(self) -> float:
        """Fraction of initiated downloads that completed."""
        return self.completed / self.downloads if self.downloads else 0.0


def infrastructure_cost(logs: LogStore) -> InfraCostReport:
    """Aggregate the infrastructure-vs-peer byte split for a trace."""
    edge = 0
    peer = 0
    completed = 0
    for rec in logs.downloads:
        edge += rec.edge_bytes
        peer += rec.peer_bytes
        if rec.outcome == OUTCOME_COMPLETED:
            completed += 1
    return InfraCostReport(
        edge_bytes=edge,
        peer_bytes=peer,
        downloads=len(logs.downloads),
        completed=completed,
    )
