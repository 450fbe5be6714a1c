"""Autonomous systems, network regions, and the inter-AS graph.

Three pieces of the paper depend on network structure:

* **Peer selection** (§3.7) groups peers into nested locality sets — world,
  large geographic region, smaller region, and specific AS — and the control
  plane itself is partitioned into fewer than 20 *network regions*.
* **The ISP analysis** (§6.1) aggregates peer-to-peer traffic per AS and per
  AS pair, and uses CAIDA topology data to estimate which heavy uploaders
  are directly connected.
* **Figure 9(c)** relates the number of IPs observed in an AS to how much it
  uploads.

We synthesise an AS-level topology: every country hosts a handful of
"eyeball" ASes sized by a Zipf-like weight, plus regional transit ASes and a
small global tier-1 clique, wired in networkx with customer-provider and
peering edges (our CAIDA substitute).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import networkx as nx

from repro.net.geo import World, Country
from repro.net.weighted import cumulative

__all__ = ["AutonomousSystem", "ASTopology", "build_topology"]


@dataclass(frozen=True)
class AutonomousSystem:
    """One AS in the synthetic Internet."""

    asn: int
    name: str
    country_code: str
    region: str           # geographic region (Table 2 regions)
    network_region: str   # control-plane region (paper: <20 of these)
    kind: str             # "eyeball" | "transit" | "tier1"
    size_weight: float    # relative share of the country's peers


class ASTopology:
    """The synthetic AS-level Internet.

    Holds the AS inventory, the per-country eyeball-AS weights used when
    placing peers, and the inter-AS connectivity graph used by the Figure 11
    analysis ("were these two heavy uploaders directly connected?").
    """

    def __init__(self, ases: list[AutonomousSystem], graph: nx.Graph):
        if not ases:
            raise ValueError("topology needs at least one AS")
        self.ases = list(ases)
        self.by_asn = {a.asn: a for a in ases}
        if len(self.by_asn) != len(ases):
            raise ValueError("duplicate ASNs in topology")
        self.graph = graph
        self._eyeballs_by_country: dict[str, list[AutonomousSystem]] = {}
        for a in ases:
            if a.kind == "eyeball":
                self._eyeballs_by_country.setdefault(a.country_code, []).append(a)
        self._eyeball_cum_weights = {
            code: cumulative(a.size_weight for a in eyeballs)
            for code, eyeballs in self._eyeballs_by_country.items()
        }

    def eyeball_ases(self, country_code: str) -> list[AutonomousSystem]:
        """Eyeball (access) ASes serving a country."""
        return self._eyeballs_by_country.get(country_code, [])

    def eyeball_cum_weights(self, country_code: str) -> list[float]:
        """Cumulative size weights of :meth:`eyeball_ases` (KeyError if none)."""
        if country_code not in self._eyeball_cum_weights:
            raise KeyError(f"no eyeball ASes for country {country_code!r}")
        return self._eyeball_cum_weights[country_code]

    def sample_as(self, country_code: str, rng: random.Random) -> AutonomousSystem:
        """Pick the AS a new peer in ``country_code`` attaches to."""
        cum_weights = self.eyeball_cum_weights(country_code)
        return rng.choices(self.eyeball_ases(country_code),
                           cum_weights=cum_weights, k=1)[0]

    def directly_connected(self, asn_a: int, asn_b: int) -> bool:
        """True if the two ASes share an edge in the inter-AS graph."""
        return self.graph.has_edge(asn_a, asn_b)

    def network_regions(self) -> list[str]:
        """Distinct control-plane network regions, sorted."""
        return sorted({a.network_region for a in self.ases})


#: Map from geographic region to control-plane network region.  The paper
#: says the deployment has fewer than 20 network regions defined by proximity
#: to server groups; we use one per geographic super-region plus splits for
#: the biggest ones, giving 12.
_NETWORK_REGION_OF = {
    "US East": "na-east",
    "US West": "na-west",
    "Americas Other": "latam",
    "Europe": "eu",
    "India": "in",
    "China": "cn",
    "Asia Other": "apac",
    "Africa": "emea-south",
    "Oceania": "oceania",
}

#: Optional per-country network-region splits for very dense regions.  The
#: production deployment subdivides dense areas, but at reproduction scale
#: splitting fragments the per-region directories without adding fidelity,
#: so the default is no splits (9 regions + backbone ≈ the paper's "<20").
_REGION_SPLITS: dict[str, str] = {}


def build_topology(
    world: World,
    rng: random.Random,
    *,
    eyeballs_per_weight: float = 0.7,
    min_eyeballs: int = 1,
    max_eyeballs: int = 12,
) -> ASTopology:
    """Synthesise an AS topology for ``world``.

    Each country gets ``~eyeballs_per_weight * peer_weight`` eyeball ASes
    (clamped), with Zipf-distributed size weights — real countries have one
    or two dominant ISPs and a tail of small ones, which is what makes the
    paper's "two largest ASes" (Figure 4) meaningful.  Regional transit ASes
    aggregate the eyeballs; a tier-1 clique interconnects the regions.
    """
    ases: list[AutonomousSystem] = []
    graph = nx.Graph()
    next_asn = 1000

    # Global tier-1 clique.
    tier1: list[AutonomousSystem] = []
    for i in range(6):
        a = AutonomousSystem(
            asn=next_asn, name=f"Tier1-{i}", country_code="US",
            region="US East", network_region="backbone", kind="tier1",
            size_weight=0.0,
        )
        next_asn += 1
        tier1.append(a)
        ases.append(a)
        graph.add_node(a.asn)
    for i, a in enumerate(tier1):
        for b in tier1[i + 1:]:
            graph.add_edge(a.asn, b.asn, relation="peer")

    # One transit AS per network region, multihomed to two tier-1s.
    transits: dict[str, AutonomousSystem] = {}
    for region in sorted(set(_NETWORK_REGION_OF.values()) | set(_REGION_SPLITS.values())):
        a = AutonomousSystem(
            asn=next_asn, name=f"Transit-{region}", country_code="--",
            region="Europe", network_region=region, kind="transit",
            size_weight=0.0,
        )
        next_asn += 1
        transits[region] = a
        ases.append(a)
        graph.add_node(a.asn)
        uplinks = rng.sample(tier1, 2)
        for up in uplinks:
            graph.add_edge(a.asn, up.asn, relation="customer")

    # Eyeball ASes per country.
    for country in world.countries:
        network_region = _REGION_SPLITS.get(
            country.code, _NETWORK_REGION_OF.get(country.region, "eu")
        )
        n_eyeballs = int(round(eyeballs_per_weight * max(country.peer_weight, 0.1)))
        n_eyeballs = max(min_eyeballs, min(max_eyeballs, n_eyeballs))
        for i in range(n_eyeballs):
            # Zipf-ish sizes: ISP #1 dominates, tail is small.
            size = 1.0 / (i + 1) ** 1.2
            a = AutonomousSystem(
                asn=next_asn,
                name=f"{country.code}-ISP-{i + 1}",
                country_code=country.code,
                region=country.region,
                network_region=network_region,
                kind="eyeball",
                size_weight=size,
            )
            next_asn += 1
            ases.append(a)
            graph.add_node(a.asn)
            # Every eyeball buys transit from its regional transit AS.
            graph.add_edge(a.asn, transits[network_region].asn, relation="customer")
            # Large eyeballs also peer directly with other large eyeballs in
            # the same network region (settlement-free peering).
            if i == 0:
                for other in ases:
                    if (
                        other.kind == "eyeball"
                        and other.network_region == network_region
                        and other.asn != a.asn
                        and other.name.endswith("ISP-1")
                        and rng.random() < 0.5
                    ):
                        graph.add_edge(a.asn, other.asn, relation="peer")

    return ASTopology(ases, graph)
