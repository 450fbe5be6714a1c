"""Baselines: the CDN design space around NetSession (paper §2.1, §7).

Pure infrastructure delivery is NetSession itself with
``p2p_globally_enabled=False``, so it needs no module of its own.

* :class:`PureP2PSwarm` — a BitTorrent-like pure peer-to-peer CDN with
  tit-for-tat incentives and no backstop;
* :class:`ManagedSwarmSystem` — Antfarm-style coordinated swarms.
"""

from repro.baselines.managed_swarm import ManagedSwarmConfig, ManagedSwarmSystem
from repro.baselines.p2p_cdn import (
    P2PConfig, P2PDownload, P2PPeer, PureP2PSwarm, Torrent,
)

__all__ = [
    "PureP2PSwarm", "P2PConfig", "P2PPeer", "P2PDownload", "Torrent",
    "ManagedSwarmSystem", "ManagedSwarmConfig",
]
