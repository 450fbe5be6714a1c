"""NetSession control plane: connection nodes, database nodes, STUN, and
the per-peer control-channel reliability layer."""

from repro.core.control.channel import ControlChannel, ControlChannelStats
from repro.core.control.connection_node import ConnectionNode
from repro.core.control.database_node import DatabaseNode, PeerRegistration
from repro.core.control.plane import ControlPlane
from repro.core.control.stun import StunService

__all__ = [
    "ConnectionNode", "ControlChannel", "ControlChannelStats",
    "DatabaseNode", "PeerRegistration",
    "ControlPlane", "StunService",
]
