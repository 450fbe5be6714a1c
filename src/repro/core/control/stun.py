"""STUN service: connectivity determination for NAT traversal (paper §3.6).

"Peers periodically communicate with STUN components over UDP and TCP to
determine the details of their connectivity (which are then stored in the DN
databases) and to enable NAT traversal."

The heavy lifting (the NAT taxonomy and misclassification model) lives in
:mod:`repro.net.nat`; this service is the control-plane component peers talk
to.
"""

from __future__ import annotations

from repro.net.nat import NATProfile, NATType

__all__ = ["StunService"]


class StunService:
    """Answers connectivity probes."""

    def __init__(self, name: str = "stun-0"):
        self.name = name

    def probe(self, profile: NATProfile) -> NATType:
        """Classify a peer's NAT.

        Returns the *reported* type — the taxonomy the probe concludes,
        which differs from the true type with the model's misclassification
        probability.  The result is what gets stored in the DN database and
        used by peer selection.
        """
        return profile.reported_type
