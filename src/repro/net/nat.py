"""NAT taxonomy, STUN-style classification, and traversal compatibility.

The paper notes (§3.7) that NAT hole punching is "a complex issue" consuming
a large fraction of the NetSession codebase, and that the database nodes
select only peers "that are likely to be able to establish a connection with
each other, e.g., based on the type of their NAT or firewall".

We model the classic STUN taxonomy (RFC 3489/5389 behaviours).  The control
plane coordinates connection establishment over the peers' persistent TCP
connections — so the compatibility matrix below assumes *coordinated,
simultaneous* hole punching, which succeeds for all pairings except those
involving symmetric NATs on both (or one plus a port-restricted) side, and
never when a peer's firewall blocks p2p entirely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from repro.net.weighted import cumulative, pick_indices

__all__ = ["NATType", "NATProfile", "NATModel", "can_connect", "DEFAULT_NAT_MIX"]


class NATType(Enum):
    """STUN-style NAT/firewall classification for a peer."""

    OPEN = "open"                      # public IP, no NAT
    FULL_CONE = "full_cone"
    RESTRICTED_CONE = "restricted_cone"
    PORT_RESTRICTED = "port_restricted"
    SYMMETRIC = "symmetric"
    BLOCKED = "blocked"                # firewall drops all unsolicited/p2p


#: Pairwise hole-punch success (with control-plane coordination).  The matrix
#: is symmetric; entries omitted here are True.
_INCOMPATIBLE: frozenset[frozenset[NATType]] = frozenset(
    frozenset(pair)
    for pair in [
        (NATType.SYMMETRIC, NATType.SYMMETRIC),
        (NATType.SYMMETRIC, NATType.PORT_RESTRICTED),
    ]
)


def can_connect(a: "NATType", b: "NATType") -> bool:
    """Can peers behind NAT types ``a`` and ``b`` establish a connection?

    Assumes the control plane coordinates a simultaneous open on both sides
    (paper §3.6: "these persistent TCP connections are also used to tell
    peers to connect to each other").
    """
    if a is NATType.BLOCKED or b is NATType.BLOCKED:
        return False
    return frozenset((a, b)) not in _INCOMPATIBLE


#: NAT-type mix for a 2012-era residential population.  Symmetric NATs and
#: blocked firewalls are the minority but large enough that connectivity-aware
#: selection visibly matters.
DEFAULT_NAT_MIX: dict[NATType, float] = {
    NATType.OPEN: 0.12,
    NATType.FULL_CONE: 0.18,
    NATType.RESTRICTED_CONE: 0.22,
    NATType.PORT_RESTRICTED: 0.33,
    NATType.SYMMETRIC: 0.10,
    NATType.BLOCKED: 0.05,
}


@dataclass(frozen=True)
class NATProfile:
    """A peer's connectivity details, as stored by the database nodes.

    Immutable (a rebind yields a new one), so the columnar store can
    intern profiles by value.

    ``reported_type`` is what STUN probing concluded; it can differ from
    ``true_type`` with a small probability, modelling the real-world
    classification noise that makes some "compatible" connection attempts
    fail anyway.
    """

    true_type: NATType
    reported_type: NATType

    @property
    def misclassified(self) -> bool:
        """True if STUN got this peer's NAT type wrong."""
        return self.true_type is not self.reported_type


class NATModel:
    """Samples NAT profiles and runs STUN-style classification."""

    def __init__(
        self,
        rng: random.Random,
        mix: dict[NATType, float] | None = None,
        misclassify_prob: float = 0.02,
    ):
        self._rng = rng
        self._mix = dict(DEFAULT_NAT_MIX if mix is None else mix)
        total = sum(self._mix.values())
        if total <= 0:
            raise ValueError("NAT mix weights must sum to a positive value")
        if not 0.0 <= misclassify_prob < 1.0:
            raise ValueError(f"misclassify_prob out of range: {misclassify_prob}")
        #: The NAT types of the mix; :meth:`draw_columns` indexes into it.
        self.types = list(self._mix.keys())
        self._cum_weights = cumulative(self._mix[t] / total for t in self.types)
        self.misclassify_prob = misclassify_prob

    def sample(self, rng: random.Random | None = None) -> NATProfile:
        """Draw a peer's NAT profile (true type + STUN-reported type).

        ``rng`` overrides the model's own stream — the fault-injection layer
        passes a per-fault RNG so rebind storms are reproducible without
        perturbing the population's draw sequence.
        """
        rng = self._rng if rng is None else rng
        true_type = rng.choices(self.types, cum_weights=self._cum_weights, k=1)[0]
        reported = true_type
        if rng.random() < self.misclassify_prob:
            others = [t for t in self.types if t is not true_type]
            reported = rng.choice(others)
        return NATProfile(true_type=true_type, reported_type=reported)

    def draw_columns(self, n: int):
        """``n`` :meth:`sample` calls as ``(true, reported)`` indexes into
        :attr:`types`, leaving the stream where they would: two uniforms a
        peer, the rare misclassification's ``choice`` drawn in place (its
        rejection sampling takes a varying number of draws)."""
        rng, p = self._rng, self.misclassify_prob
        r, others = rng.random, range(len(self.types) - 1)
        uniforms, wrong = [], []
        for row in range(n):
            uniforms.append(r())
            if r() < p:
                wrong.append((row, rng.choice(others)))
        true_i = pick_indices(self._cum_weights, uniforms)
        reported_i = true_i.copy()
        for row, k in wrong:
            # k indexes ``types`` with the true type removed.
            reported_i[row] = k if k < true_i[row] else k + 1
        return true_i, reported_i

    def rebind(self, profile: NATProfile, rng: random.Random) -> NATProfile:
        """Model a NAT rebind: the middlebox re-assigns this peer's mapping.

        CPE reboots and carrier-grade NAT churn can change a peer's
        effective NAT behaviour mid-session; the directory keeps the stale
        reported type until the peer's next registration refresh.  Returns a
        fresh profile drawn from the same mix (possibly the same types).
        """
        return self.sample(rng=rng)
