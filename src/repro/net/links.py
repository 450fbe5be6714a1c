"""Access-link models: asymmetric residential broadband and edge capacity.

The paper attributes the peer-assisted speed gap (Figure 4) to the asymmetry
of residential broadband — fast downstream, slow upstream [Dischinger et al.,
IMC 2007].  We model each peer's access link as a pair of
:class:`~repro.net.flows.Resource` objects (one per direction) whose
capacities are sampled from a tiered broadband distribution, and each edge
server as a single high-capacity egress resource.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.net.flows import Resource
from repro.net.weighted import cumulative, pick_indices, raw_words, uniforms

__all__ = ["AccessLink", "BroadbandTier", "BroadbandModel",
           "DEFAULT_BROADBAND_TIERS", "mbps"]


def mbps(value: float) -> float:
    """Convert megabits/second to the bytes/second used by the flow model."""
    return value * 1e6 / 8.0


@dataclass(frozen=True)
class BroadbandTier:
    """One access-technology tier in the broadband mix.

    ``down_mbps``/``up_mbps`` are (low, high) ranges sampled log-uniformly,
    which matches the long-tailed speed distributions seen in residential
    measurements better than a uniform draw.
    """

    name: str
    weight: float
    down_mbps: tuple[float, float]
    up_mbps: tuple[float, float]


#: A broadband mix loosely calibrated to the 2012-era populations the paper
#: measured: a DSL bulk, a cable middle class, a fast-fiber minority, and a
#: slow long tail (mobile/legacy links).  Asymmetry ratios of roughly 4-20x
#: reproduce the upstream bottleneck that shapes Figures 4-6.
DEFAULT_BROADBAND_TIERS: tuple[BroadbandTier, ...] = (
    BroadbandTier("dsl", 0.40, (2.0, 16.0), (0.4, 1.5)),
    BroadbandTier("cable", 0.35, (8.0, 50.0), (1.0, 5.0)),
    BroadbandTier("fiber", 0.10, (50.0, 200.0), (10.0, 100.0)),
    BroadbandTier("slow", 0.15, (0.5, 2.0), (0.1, 0.5)),
)


@dataclass
class AccessLink:
    """A peer's access link: one Resource per direction plus tier metadata."""

    downlink: Resource
    uplink: Resource
    tier: str
    #: While a fault degrades this link, the original (down, up) capacities
    #: in bytes/second; None when the link is healthy.
    pre_degradation: tuple[float, float] | None = None

    @property
    def down_bps(self) -> float:
        """Downstream capacity in bytes/second."""
        assert self.downlink.capacity is not None
        return self.downlink.capacity

    @property
    def up_bps(self) -> float:
        """Upstream capacity in bytes/second."""
        assert self.uplink.capacity is not None
        return self.uplink.capacity

    @property
    def degraded(self) -> bool:
        """Is a fault currently degrading this link?"""
        return self.pre_degradation is not None

    def degrade(self, flows, down_factor: float, up_factor: float) -> bool:
        """Scale both directions down (brownout, congestion, line fault).

        In-flight flows are re-allocated at the reduced capacity.  Returns
        False (and does nothing) if the link is already degraded — faults do
        not stack, which keeps apply/revert symmetric.
        """
        if self.degraded:
            return False
        self.pre_degradation = (self.down_bps, self.up_bps)
        # Both directions drop at the same instant: settle once.
        with flows.batch():
            flows.set_resource_capacity(self.downlink, max(1.0, self.down_bps * down_factor))
            flows.set_resource_capacity(self.uplink, max(1.0, self.up_bps * up_factor))
        return True

    def restore(self, flows) -> bool:
        """Undo :meth:`degrade`, re-allocating flows at full capacity."""
        if self.pre_degradation is None:
            return False
        down, up = self.pre_degradation
        self.pre_degradation = None
        with flows.batch():
            flows.set_resource_capacity(self.downlink, down)
            flows.set_resource_capacity(self.uplink, up)
        return True


class BroadbandModel:
    """Samples peer access links from a weighted tier mix.

    Country-level speed multipliers let the population layer give, say,
    fiber-heavy countries faster links — which the paper's Figure 4 exploits
    by comparing two specific large ASes.
    """

    def __init__(
        self,
        rng: random.Random,
        tiers: tuple[BroadbandTier, ...] = DEFAULT_BROADBAND_TIERS,
    ):
        if not tiers:
            raise ValueError("broadband model needs at least one tier")
        total = sum(t.weight for t in tiers)
        if total <= 0:
            raise ValueError("tier weights must sum to a positive value")
        self._rng = rng
        self._tiers = tiers
        self._cum_weights = cumulative(t.weight / total for t in tiers)

    @property
    def tier_names(self) -> list[str]:
        """Tier names, indexed like the tier column of :meth:`draw_columns`."""
        return [t.name for t in self._tiers]

    def draw(self, speed_multiplier: float = 1.0) -> tuple[int, float, float]:
        """Draw link parameters ``(tier index, down_mbps, up_mbps)``;
        ``speed_multiplier`` (per-country/AS differences) scales both ways."""
        if speed_multiplier <= 0:
            raise ValueError(f"speed multiplier must be positive, got {speed_multiplier}")
        tier_i = self._rng.choices(
            range(len(self._tiers)), cum_weights=self._cum_weights, k=1)[0]
        tier = self._tiers[tier_i]
        down = _log_uniform(self._rng, *tier.down_mbps) * speed_multiplier
        up = _log_uniform(self._rng, *tier.up_mbps) * speed_multiplier
        # Upstream never exceeds downstream on residential links.
        return tier_i, down, min(up, down)

    def sample(self, owner: str, speed_multiplier: float = 1.0) -> AccessLink:
        """Draw an access link for peer ``owner`` (:meth:`draw`, then build)."""
        tier_i, down, up = self.draw(speed_multiplier)
        return AccessLink(
            downlink=Resource(f"{owner}/down", mbps(down)),
            uplink=Resource(f"{owner}/up", mbps(up)),
            tier=self._tiers[tier_i].name,
        )

    def draw_columns(self, speed_multipliers: "np.ndarray"):
        """:meth:`draw` per entry, as ``(tier index, down B/s, up B/s)`` arrays.

        Leaves the stream where that many :meth:`draw` calls would: three
        uniforms a peer — unless a tier's speed range is degenerate (drawing
        nothing), when only the scalar order is right.
        """
        tiers = self._tiers
        if any(lo >= hi for t in tiers for lo, hi in (t.down_mbps, t.up_mbps)):
            drawn = np.array([self.draw(m) for m in speed_multipliers.tolist()])
            return drawn[:, 0].astype(np.int32), mbps(drawn[:, 1]), mbps(drawn[:, 2])
        if (speed_multipliers <= 0).any():
            raise ValueError("speed multipliers must be positive")
        n = len(speed_multipliers)
        u = uniforms(raw_words(self._rng, 6 * n).reshape(n, 6))
        tier_i = pick_indices(self._cum_weights, u[:, 0])

        def speeds(ranges, uniforms):
            # rng.uniform(log lo, log hi) column-wise; math.exp per element
            # because np.exp differs from it in the last ulp.
            lo, hi = np.array([[math.log(b) for b in rg] for rg in ranges])[tier_i].T
            logs = (lo + (hi - lo) * uniforms).tolist()
            return np.array([math.exp(x) for x in logs]) * speed_multipliers

        down = speeds([t.down_mbps for t in tiers], u[:, 1])
        up = np.minimum(speeds([t.up_mbps for t in tiers], u[:, 2]), down)
        return tier_i.astype(np.int32), mbps(down), mbps(up)


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    """Sample log-uniformly from [low, high]."""
    if low <= 0 or high < low:
        raise ValueError(f"invalid log-uniform range [{low}, {high}]")
    if high == low:
        return low
    return math.exp(rng.uniform(math.log(low), math.log(high)))
