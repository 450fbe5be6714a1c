"""Section 6.2 analyses: user-managed machines — mobility and cloning.

Mobility: per GUID, the set of ASes connected from (paper: 80.6% one AS,
13.4% two, 6% more) and the maximum pairwise geolocation distance (77%
within 10 km).

Cloning (Figure 12): per primary GUID, build the graph whose vertices are
secondary GUIDs and whose edges connect GUIDs "that follow each other in a
login entry".  A normal installation yields a linear chain; a rolled-back
installation yields a tree.  The classifier reproduces the paper's pattern
taxonomy: linear chain / one short branch (failed update) / two long
branches (restored backup) / several short-medium branches (re-imaging or
cloning) / irregular.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import networkx as nx

from repro.analysis.logstore import LogStore
from repro.net.geo import GeoDatabase, haversine_km

__all__ = [
    "MobilitySummary", "mobility_summary",
    "build_secondary_guid_graphs", "classify_graph", "figure12_pattern_census",
]


# ------------------------------------------------------------------ mobility


@dataclass
class MobilitySummary:
    """The §6.2 mobility statistics."""

    guids: int
    one_as: float          # fraction connecting from exactly one AS
    two_as: float
    more_as: float
    within_10km: float     # fraction whose max pairwise distance <= 10 km
    beyond_10km: float
    mean_new_connections_per_minute: float


def mobility_summary(logs: LogStore, geodb: GeoDatabase) -> MobilitySummary:
    """Compute the mobility statistics from login records + geolocation."""
    as_sets: dict[str, set[int]] = defaultdict(set)
    locations: dict[str, list[tuple[float, float]]] = defaultdict(list)
    t_min = float("inf")
    t_max = float("-inf")
    for rec in logs.logins:
        geo = geodb.get(rec.ip)
        if geo is None:
            continue
        as_sets[rec.guid].add(geo.asn)
        point = (geo.lat, geo.lon)
        if point not in locations[rec.guid]:
            locations[rec.guid].append(point)
        t_min = min(t_min, rec.timestamp)
        t_max = max(t_max, rec.timestamp)

    n = len(as_sets)
    if n == 0:
        return MobilitySummary(0, 0, 0, 0, 0, 0, 0)

    one = sum(1 for s in as_sets.values() if len(s) == 1)
    two = sum(1 for s in as_sets.values() if len(s) == 2)
    more = n - one - two

    within = 0
    for points in locations.values():
        max_d = 0.0
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                d = haversine_km(*points[i], *points[j])
                if d > max_d:
                    max_d = d
            if max_d > 10.0:
                break
        if max_d <= 10.0:
            within += 1

    minutes = max((t_max - t_min) / 60.0, 1.0)
    return MobilitySummary(
        guids=n,
        one_as=one / n,
        two_as=two / n,
        more_as=more / n,
        within_10km=within / n,
        beyond_10km=1.0 - within / n,
        mean_new_connections_per_minute=len(logs.logins) / minutes,
    )


# ------------------------------------------------------------------- Fig 12


def build_secondary_guid_graphs(
    logs: LogStore,
    *,
    min_vertices: int = 3,
) -> dict[str, nx.DiGraph]:
    """Per primary GUID, the directed secondary-GUID succession graph.

    Each login reports the last few secondary GUIDs, newest first; edges go
    older → newer between consecutive entries, exactly as the paper joins
    "GUIDs that follow each other in a login entry".  Graphs with fewer
    than ``min_vertices`` vertices are dropped (the paper analyses graphs
    with at least three).
    """
    graphs: dict[str, nx.DiGraph] = {}
    for guid, logins in logs.logins_by_guid().items():
        g = nx.DiGraph()
        for rec in logins:
            chain = list(rec.secondary_guids)  # newest first
            for newer, older in zip(chain, chain[1:]):
                g.add_edge(older, newer)
        if g.number_of_nodes() >= min_vertices:
            graphs[guid] = g
    return graphs


def classify_graph(g: nx.DiGraph) -> str:
    """Classify one secondary-GUID graph into the paper's Figure 12 taxonomy.

    Returns one of:

    * ``"linear"`` — a simple chain (normal installation);
    * ``"one_short_branch"`` — one long branch plus a single one-vertex
      branch (failed software update);
    * ``"two_long_branches"`` — two branches of length ≥2 (restored backup);
    * ``"several_branches"`` — three or more branches (re-imaging/cloning);
    * ``"irregular"`` — anything else (merges, cycles, multiple roots).
    """
    if g.number_of_nodes() == 0:
        return "irregular"
    # A well-formed history is a rooted out-tree.  Anything with a vertex
    # of in-degree > 1 (a merge) or a cycle is irregular.
    in_deg = dict(g.in_degree())
    roots = [v for v, d in in_deg.items() if d == 0]
    if len(roots) != 1 or any(d > 1 for d in in_deg.values()):
        return "irregular"
    if not nx.is_directed_acyclic_graph(g):  # pragma: no cover - defensive
        return "irregular"

    branch_points = [v for v, d in g.out_degree() if d > 1]
    if not branch_points:
        return "linear"

    # Measure the branches hanging off each branch point: the length of
    # each subtree below every extra child.
    branch_lengths: list[int] = []
    for v in branch_points:
        children = list(g.successors(v))
        subtree_sizes = sorted(
            (len(nx.descendants(g, c)) + 1 for c in children), reverse=True
        )
        # All but the largest subtree count as side branches.
        branch_lengths.extend(subtree_sizes[1:])

    if len(branch_lengths) == 1:
        if branch_lengths[0] == 1:
            return "one_short_branch"
        return "two_long_branches"
    return "several_branches"


def figure12_pattern_census(
    logs: LogStore,
    *,
    min_vertices: int = 3,
) -> dict[str, float]:
    """The Figure 12 statistics: pattern shares over all GUID graphs.

    Returns the share of each class plus ``"nonlinear"``, the total
    fraction of non-chain graphs (paper: 0.6%).
    """
    graphs = build_secondary_guid_graphs(logs, min_vertices=min_vertices)
    if not graphs:
        return {}
    census: Counter = Counter(classify_graph(g) for g in graphs.values())
    n = len(graphs)
    result = {k: v / n for k, v in census.items()}
    result["nonlinear"] = 1.0 - census.get("linear", 0) / n
    result["graphs"] = n
    return result
