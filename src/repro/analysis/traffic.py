"""Section 6.1 analyses: does the p2p traffic burden ISPs?

Reconstructs the paper's methodology exactly: each peer-assisted download
record lists the GUIDs that sent content bytes; the login data maps each
GUID to the IP it was using at the time; EdgeScape maps the IP to an AS.
The result is a set of (bytes, AS_from, AS_to) flows, aggregated per AS and
per AS pair.  Infrastructure bytes are excluded (an infrastructure CDN
would send them anyway), as are packet headers/protocol overhead.

Figures: 9(a) inter-AS upload CDF, 9(b) cumulative contribution, 9(c) IPs
per AS for light vs heavy uploaders, 10 upload-vs-download balance, 11
pairwise balance between directly connected heavy uploaders.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.analysis.logstore import LogStore
from repro.analysis.stats import cdf_points
from repro.net.geo import GeoDatabase
from repro.net.topology import ASTopology

__all__ = ["TrafficMatrix", "build_traffic_matrix", "figure9a_upload_cdf",
           "figure9b_cumulative_contribution", "figure9c_ips_per_as",
           "figure10_balance_scatter", "figure11_pair_balance",
           "heavy_uploader_ases", "locality_shares", "site_local_share"]


@dataclass
class TrafficMatrix:
    """Aggregated peer-to-peer content-byte flows at AS granularity."""

    #: bytes sent from AS a to AS b, a != b.
    inter_as: dict[tuple[int, int], int] = field(default_factory=dict)
    intra_as_bytes: int = 0
    total_bytes: int = 0
    #: All ASes in which any peer was observed (denominator for Fig 9a).
    observed_ases: set[int] = field(default_factory=set)
    #: Distinct IPs observed per AS (Figure 9c).
    ips_per_as: dict[int, set] = field(default_factory=dict)
    #: Flows whose uploader could not be located (no login before the
    #: download ended) — excluded from the matrix, counted for honesty.
    unresolved_bytes: int = 0

    def per_as_uploads(self) -> dict[int, int]:
        """Inter-AS bytes uploaded, for every observed AS (zeros included)."""
        out = {asn: 0 for asn in self.observed_ases}
        for (a, _b), v in self.inter_as.items():
            out[a] = out.get(a, 0) + v
        return out

    def per_as_downloads(self) -> dict[int, int]:
        """Inter-AS bytes downloaded, for every observed AS (zeros included)."""
        out = {asn: 0 for asn in self.observed_ases}
        for (_a, b), v in self.inter_as.items():
            out[b] = out.get(b, 0) + v
        return out

    @property
    def intra_as_fraction(self) -> float:
        """Share of p2p bytes exchanged within a single AS (paper: 18%)."""
        if self.total_bytes == 0:
            return 0.0
        return self.intra_as_bytes / self.total_bytes


def build_traffic_matrix(logs: LogStore, geodb: GeoDatabase) -> TrafficMatrix:
    """Reconstruct the AS-level p2p traffic matrix from the trace."""
    matrix = TrafficMatrix()

    # GUID -> sorted (timestamp, ip) from login records.
    login_index: dict[str, tuple[list[float], list[str]]] = {}
    for guid, logins in logs.logins_by_guid().items():
        times = [l.timestamp for l in logins]
        ips = [l.ip for l in logins]
        login_index[guid] = (times, ips)

    def asn_of_guid_at(guid: str, when: float) -> int | None:
        entry = login_index.get(guid)
        if entry is None:
            return None
        times, ips = entry
        idx = bisect.bisect_right(times, when) - 1
        if idx < 0:
            idx = 0  # first login was just after; same machine
        geo = geodb.get(ips[idx])
        return geo.asn if geo is not None else None

    # Observed ASes and IPs per AS come from every login in the trace.
    for rec in logs.logins:
        geo = geodb.get(rec.ip)
        if geo is None:
            continue
        matrix.observed_ases.add(geo.asn)
        matrix.ips_per_as.setdefault(geo.asn, set()).add(rec.ip)

    inter: Counter = Counter()
    for rec in logs.downloads:
        if not rec.per_uploader_bytes:
            continue
        geo_down = geodb.get(rec.ip)
        if geo_down is None:
            continue
        as_to = geo_down.asn
        for uploader_guid, nbytes in rec.per_uploader_bytes.items():
            as_from = asn_of_guid_at(uploader_guid, rec.ended_at)
            if as_from is None:
                matrix.unresolved_bytes += nbytes
                continue
            matrix.total_bytes += nbytes
            if as_from == as_to:
                matrix.intra_as_bytes += nbytes
            else:
                inter[(as_from, as_to)] += nbytes
    matrix.inter_as = dict(inter)
    return matrix


def figure9a_upload_cdf(matrix: TrafficMatrix) -> list[tuple[float, float]]:
    """CDF of inter-AS bytes uploaded per AS (Figure 9a).

    Includes the observed ASes that uploaded nothing — the paper notes
    roughly half the ASes sent no inter-AS bytes at all.
    """
    uploads = list(matrix.per_as_uploads().values())
    return cdf_points([float(v) for v in uploads])


def figure9b_cumulative_contribution(matrix: TrafficMatrix) -> list[tuple[float, float]]:
    """Cumulative share of total inter-AS bytes vs per-AS upload (Figure 9b).

    A point (x, y): ASes uploading less than x bytes contributed y of the
    total.  The paper: ASes below 163 GB (98% of ASes) contributed just 10%.
    """
    uploads = sorted(matrix.per_as_uploads().values())
    total = sum(uploads)
    if total == 0:
        return []
    points = []
    cum = 0
    for v in uploads:
        cum += v
        points.append((float(v), cum / total))
    return points


def heavy_uploader_ases(matrix: TrafficMatrix, byte_share: float = 0.9) -> set[int]:
    """The smallest set of top uploader ASes covering ``byte_share`` of bytes.

    The paper's "heavy uploaders": 2% of ASes responsible for 90% of the
    p2p traffic.
    """
    uploads = matrix.per_as_uploads()
    total = sum(uploads.values())
    if total == 0:
        return set()
    heavy: set[int] = set()
    cum = 0
    for asn, v in sorted(uploads.items(), key=lambda kv: kv[1], reverse=True):
        if cum >= byte_share * total:
            break
        heavy.add(asn)
        cum += v
    return heavy


def figure9c_ips_per_as(
    matrix: TrafficMatrix,
) -> dict[str, list[tuple[float, float]]]:
    """CDFs of distinct IPs per AS, split into light vs heavy uploaders.

    The paper's natural explanation for the heavy tail: heavy uploaders
    simply contain a lot more peers (Figure 9c).
    """
    heavy = heavy_uploader_ases(matrix)
    light_counts: list[float] = []
    heavy_counts: list[float] = []
    for asn in matrix.observed_ases:
        n_ips = float(len(matrix.ips_per_as.get(asn, ())))
        if asn in heavy:
            heavy_counts.append(n_ips)
        else:
            light_counts.append(n_ips)
    return {
        "light": cdf_points(light_counts),
        "heavy": cdf_points(heavy_counts),
    }


def figure10_balance_scatter(
    matrix: TrafficMatrix,
) -> list[tuple[int, float, float, bool]]:
    """Per-AS (uploaded, downloaded) scatter with heavy flag (Figure 10).

    Returns (asn, uploaded bytes, downloaded bytes, is_heavy) rows for
    every observed AS.  The paper's finding: heavy uploaders sit near the
    diagonal (balanced); big imbalances only occur at tiny volumes.
    """
    ups = matrix.per_as_uploads()
    downs = matrix.per_as_downloads()
    heavy = heavy_uploader_ases(matrix)
    return [
        (asn, float(ups.get(asn, 0)), float(downs.get(asn, 0)), asn in heavy)
        for asn in matrix.observed_ases
    ]


def figure11_pair_balance(
    matrix: TrafficMatrix,
    topology: ASTopology,
    *,
    directly_connected_only: bool = True,
) -> list[tuple[int, int, float, float]]:
    """Pairwise traffic balance between heavy-uploader ASes (Figure 11).

    Returns (as_a, as_b, bytes a→b, bytes b→a) for unordered heavy pairs
    with any traffic; restricted to pairs with a direct edge in the AS
    graph when ``directly_connected_only`` (the paper's CAIDA estimate).
    """
    heavy = heavy_uploader_ases(matrix)
    pair_bytes: dict[tuple[int, int], list[float]] = defaultdict(lambda: [0.0, 0.0])
    for (a, b), v in matrix.inter_as.items():
        if a not in heavy or b not in heavy:
            continue
        key = (min(a, b), max(a, b))
        if a < b:
            pair_bytes[key][0] += v
        else:
            pair_bytes[key][1] += v
    rows = []
    for (a, b), (ab, ba) in pair_bytes.items():
        if directly_connected_only and not topology.directly_connected(a, b):
            continue
        rows.append((a, b, ab, ba))
    return rows


def locality_shares(logs: LogStore, geodb: GeoDatabase) -> dict[str, float]:
    """Byte shares of p2p traffic staying within AS / country / region.

    The §7-cited conclusion — "the CDN can avoid a large impact on ISPs by
    using a simple locality-aware peer selection strategy" — is about how
    far the bytes travel; these shares quantify it at three radii.
    """
    login_index: dict[str, tuple[list[float], list[str]]] = {}
    for guid, logins in logs.logins_by_guid().items():
        login_index[guid] = ([l.timestamp for l in logins],
                             [l.ip for l in logins])

    totals = {"intra_as": 0, "intra_country": 0, "intra_region": 0, "all": 0}
    for rec in logs.downloads:
        if not rec.per_uploader_bytes:
            continue
        down = geodb.get(rec.ip)
        if down is None:
            continue
        for uploader_guid, nbytes in rec.per_uploader_bytes.items():
            entry = login_index.get(uploader_guid)
            if entry is None:
                continue
            times, ips = entry
            idx = max(0, bisect.bisect_right(times, rec.ended_at) - 1)
            up = geodb.get(ips[idx])
            if up is None:
                continue
            totals["all"] += nbytes
            if up.asn == down.asn:
                totals["intra_as"] += nbytes
            if up.country_code == down.country_code:
                totals["intra_country"] += nbytes
            if up.region == down.region:
                totals["intra_region"] += nbytes
    if totals["all"] == 0:
        return {"intra_as": 0.0, "intra_country": 0.0, "intra_region": 0.0}
    return {
        "intra_as": totals["intra_as"] / totals["all"],
        "intra_country": totals["intra_country"] / totals["all"],
        "intra_region": totals["intra_region"] / totals["all"],
    }


def site_local_share(logs: LogStore, site_of_guid: dict[str, str]) -> float:
    """Fraction of p2p bytes exchanged within one LAN site (§5.3).

    ``site_of_guid`` maps peer GUIDs to site ids (the operator knows its
    fleet).  The paper found this case rare in 2012 but flagged it as the
    software-update opportunity; the enterprise-updates experiment measures
    it directly.
    """
    local = 0
    total = 0
    for rec in logs.downloads:
        down_site = site_of_guid.get(rec.guid, "")
        for uploader, nbytes in rec.per_uploader_bytes.items():
            total += nbytes
            if down_site and site_of_guid.get(uploader, "") == down_site:
                local += nbytes
    return local / total if total else 0.0
