"""Baselines: the two ends of the CDN design space (paper §2.1).

* :func:`infrastructure_cost` — the byte split of pure infrastructure
  delivery (NetSession with ``p2p_globally_enabled=False``);
* :class:`PureP2PSwarm` — a BitTorrent-like pure peer-to-peer CDN with
  tit-for-tat incentives and no backstop.
"""

from repro.baselines.infra_cdn import (
    InfraCostReport, infrastructure_cost,
)
from repro.baselines.managed_swarm import ManagedSwarmConfig, ManagedSwarmSystem
from repro.baselines.p2p_cdn import (
    P2PConfig, P2PDownload, P2PPeer, PureP2PSwarm, Torrent,
)

__all__ = [
    "infrastructure_cost", "InfraCostReport",
    "PureP2PSwarm", "P2PConfig", "P2PPeer", "P2PDownload", "Torrent",
    "ManagedSwarmSystem", "ManagedSwarmConfig",
]
