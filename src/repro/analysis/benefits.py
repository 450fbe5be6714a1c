"""Section 5 analyses: does the hybrid deliver the benefits?

Covers §5.1 (offload), §5.2 (performance and reliability), §5.3 (global
coverage): Tables 3–4 and Figures 4–8, plus the headline §5.1 statistics
(p2p-enabled file fraction vs byte share; average peer efficiency).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.analysis.logstore import LogStore
from repro.analysis.records import DownloadRecord, OUTCOME_ABORTED, OUTCOME_COMPLETED
from repro.analysis.stats import cdf_points, mean, percentile
from repro.net.geo import GeoDatabase

__all__ = [
    "OffloadSummary", "offload_summary", "trace_offload",
    "table3_setting_changes", "table4_upload_enabled_by_provider",
    "figure4_speed_cdfs", "busiest_ases",
    "figure5_efficiency_vs_copies", "figure6_efficiency_vs_peers",
    "figure7_pause_rates", "reliability_outcomes",
    "figure8_country_contributions",
    "SIZE_BINS",
]

MB = 1024 * 1024
GB = 1024 * MB

#: Figure 7's size buckets: (<10MB, 10–100MB, 100MB–1GB, >1GB).
SIZE_BINS: tuple[tuple[str, float, float], ...] = (
    ("<10MB", 0, 10 * MB),
    ("10-100MB", 10 * MB, 100 * MB),
    ("100MB-1GB", 100 * MB, 1 * GB),
    (">1GB", 1 * GB, float("inf")),
)


# ------------------------------------------------------------------- §5.1


@dataclass
class OffloadSummary:
    """The §5.1 headline numbers."""

    p2p_file_fraction: float       # fraction of distinct files with p2p on
    p2p_byte_share: float          # share of all bytes in p2p-enabled downloads
    mean_peer_efficiency: float    # average over completed p2p downloads
    median_peer_efficiency: float
    byte_weighted_efficiency: float


def offload_summary(logs: LogStore) -> OffloadSummary:
    """Compute the §5.1 statistics from completed downloads.

    Paper values: 1.7% of files p2p-enabled; 57.4% of bytes; 71.4% average
    peer efficiency for peer-assisted downloads.
    """
    files_p2p: set[str] = set()
    files_all: set[str] = set()
    p2p_bytes = 0
    all_bytes = 0
    effs: list[float] = []
    peer_bytes = 0
    p2p_total = 0
    for rec in logs.downloads:
        files_all.add(rec.cid)
        if rec.p2p_enabled:
            files_p2p.add(rec.cid)
        if rec.outcome != OUTCOME_COMPLETED:
            continue
        all_bytes += rec.total_bytes
        if rec.p2p_enabled:
            p2p_bytes += rec.total_bytes
            peer_bytes += rec.peer_bytes
            p2p_total += rec.total_bytes
            effs.append(rec.peer_fraction)
    return OffloadSummary(
        p2p_file_fraction=len(files_p2p) / len(files_all) if files_all else 0.0,
        p2p_byte_share=p2p_bytes / all_bytes if all_bytes else 0.0,
        mean_peer_efficiency=mean(effs),
        median_peer_efficiency=percentile(effs, 50) if effs else 0.0,
        byte_weighted_efficiency=peer_bytes / p2p_total if p2p_total else 0.0,
    )


def trace_offload(logs: LogStore) -> float:
    """Peer bytes as a fraction of all delivered bytes, across the trace
    (every download, whatever its outcome or p2p setting)."""
    peer = sum(rec.peer_bytes for rec in logs.downloads)
    total = sum(rec.peer_bytes + rec.edge_bytes for rec in logs.downloads)
    return peer / total if total else 0.0


# ------------------------------------------------------------- Tables 3, 4


def table3_setting_changes(logs: LogStore) -> dict[str, dict[str, float]]:
    """Observed changes to the upload setting, by initial value (Table 3).

    Returns ``{"disabled"|"enabled": {"nodes": n, "0": f, "1": f, "2+": f}}``
    where fractions are of nodes with that initial setting.
    """
    by_guid = logs.logins_by_guid()
    buckets = {
        "disabled": Counter(),
        "enabled": Counter(),
    }
    for logins in by_guid.values():
        initial = logins[0].uploads_enabled
        changes = sum(
            1 for a, b in zip(logins, logins[1:])
            if a.uploads_enabled != b.uploads_enabled
        )
        key = "enabled" if initial else "disabled"
        buckets[key][min(changes, 2)] += 1
    result: dict[str, dict[str, float]] = {}
    for key, counts in buckets.items():
        total = sum(counts.values())
        result[key] = {
            "nodes": total,
            "0": counts.get(0, 0) / total if total else 0.0,
            "1": counts.get(1, 0) / total if total else 0.0,
            "2+": counts.get(2, 0) / total if total else 0.0,
        }
    return result


def table4_upload_enabled_by_provider(logs: LogStore) -> dict[int, float]:
    """Fraction of peers with uploads enabled, per provider (Table 4).

    The paper attributes each peer to "the content provider from who the
    user first downloaded the binary".  The bundle is identified from the
    software version string the client reports at login (production
    installers encode their distribution channel); peers whose version
    string does not carry a CP code are attributed to the provider of
    their first download instead.
    """
    first_cp: dict[str, int] = {}
    for rec in sorted(logs.downloads, key=lambda r: r.started_at):
        first_cp.setdefault(rec.guid, rec.cp_code)
    enabled: dict[int, list[bool]] = defaultdict(list)
    for guid, logins in logs.logins_by_guid().items():
        first = logins[0]
        cp = _bundle_cp(first.software_version)
        if cp is None or cp == 0:
            cp = first_cp.get(guid)
        if cp:
            enabled[cp].append(first.uploads_enabled)
    return {
        cp: sum(flags) / len(flags)
        for cp, flags in enabled.items()
        if flags
    }


def _bundle_cp(version: str) -> int | None:
    """Extract the bundling provider's CP code from a version string."""
    marker = "-cp"
    idx = version.rfind(marker)
    if idx < 0:
        return None
    tail = version[idx + len(marker):]
    return int(tail) if tail.isdigit() else None


# ------------------------------------------------------------------ Figure 4


def busiest_ases(logs: LogStore, geodb: GeoDatabase, n: int = 2) -> list[int]:
    """The ``n`` ASes with the most downloads (Figure 4's AS X and AS Y)."""
    counts: Counter = Counter()
    for rec in logs.downloads:
        geo = geodb.get(rec.ip)
        if geo is not None:
            counts[geo.asn] += 1
    return [asn for asn, _count in counts.most_common(n)]


def figure4_speed_cdfs(
    logs: LogStore,
    geodb: GeoDatabase,
    asn: int,
) -> dict[str, list[tuple[float, float]]]:
    """Download-speed CDFs for one AS: edge-only vs ≥50%-from-peers.

    Speeds are averaged over each download's full duration, in Mbit/s,
    exactly as the paper computes Figure 4.  Only completed downloads are
    considered.
    """
    edge_only: list[float] = []
    p2p_heavy: list[float] = []
    for rec in logs.downloads:
        if rec.outcome != OUTCOME_COMPLETED:
            continue
        geo = geodb.get(rec.ip)
        if geo is None or geo.asn != asn:
            continue
        speed_mbps = rec.average_speed_bps() * 8 / 1e6
        if speed_mbps <= 0:
            continue
        if rec.peer_bytes == 0:
            edge_only.append(speed_mbps)
        elif rec.peer_fraction >= 0.5:
            p2p_heavy.append(speed_mbps)
    return {
        "edge_only": cdf_points(edge_only),
        "p2p_heavy": cdf_points(p2p_heavy),
    }


# ------------------------------------------------------------- Figures 5, 6


def figure5_efficiency_vs_copies(
    logs: LogStore,
    *,
    bin_edges: tuple[int, ...] = (1, 3, 10, 30, 100, 300, 1000, 10000, 100000),
) -> list[tuple[float, float, float, float]]:
    """Average peer efficiency as a function of registered copies per file.

    For each p2p-enabled file, the copy count is the number of DN log
    entries (registrations) for it during the trace, and the efficiency is
    the average over its completed downloads — as in Figure 5.  Results are
    binned geometrically; returns (bin center, mean, p20, p80) rows.
    """
    regs = logs.registrations_by_cid()
    per_file_eff: dict[str, list[float]] = defaultdict(list)
    for rec in logs.downloads:
        if rec.p2p_enabled and rec.outcome == OUTCOME_COMPLETED:
            per_file_eff[rec.cid].append(rec.peer_fraction)

    points: list[tuple[int, float]] = []
    for cid, effs in per_file_eff.items():
        # Distinct registering peers: churny peers re-register after each
        # login, so raw entry counts would overstate availability.
        copies = len({r.guid for r in regs.get(cid, [])})
        points.append((copies, mean(effs)))

    rows: list[tuple[float, float, float, float]] = []
    for lo, hi in zip(bin_edges, bin_edges[1:]):
        bucket = [eff for copies, eff in points if lo <= copies < hi]
        if not bucket:
            continue
        center = (lo * hi) ** 0.5
        rows.append((
            center,
            mean(bucket),
            percentile(bucket, 20),
            percentile(bucket, 80),
        ))
    return rows


def figure6_efficiency_vs_peers(
    logs: LogStore,
    *,
    max_peers: int = 40,
) -> list[tuple[int, float, int]]:
    """Peer efficiency vs peers initially returned by the control plane.

    Returns (peers returned, mean efficiency, sample count) rows for
    completed p2p-enabled downloads — Figure 6.  The paper finds ~80%
    efficiency from roughly 25–30 peers.
    """
    groups: dict[int, list[float]] = defaultdict(list)
    for rec in logs.downloads:
        if rec.p2p_enabled and rec.outcome == OUTCOME_COMPLETED:
            groups[min(rec.peers_initially_returned, max_peers)].append(rec.peer_fraction)
    return [
        (k, mean(v), len(v))
        for k, v in sorted(groups.items())
    ]


# ------------------------------------------------------- Figure 7 / §5.2


def figure7_pause_rates(logs: LogStore) -> dict[str, dict[str, float]]:
    """Pause/termination rate by file-size bucket and delivery class.

    Returns ``{class: {bucket_label: aborted fraction}}`` for classes
    "infrastructure", "peer_assisted", and "all" — Figure 7.
    """
    def rate(records: list[DownloadRecord]) -> dict[str, float]:
        out: dict[str, float] = {}
        for label, lo, hi in SIZE_BINS:
            bucket = [r for r in records if lo <= r.size < hi]
            if bucket:
                out[label] = sum(
                    1 for r in bucket if r.outcome == OUTCOME_ABORTED
                ) / len(bucket)
        return out

    infra = [r for r in logs.downloads if not r.p2p_enabled]
    p2p = [r for r in logs.downloads if r.p2p_enabled]
    return {
        "infrastructure": rate(infra),
        "peer_assisted": rate(p2p),
        "all": rate(infra + p2p),
    }


def reliability_outcomes(logs: LogStore) -> dict[str, dict[str, float]]:
    """§5.2's outcome split per delivery class.

    Returns ``{class: {completed, aborted, failed, failed_system,
    failed_other}}`` as fractions of initiated downloads.  Paper: 94% vs
    92% completion; 0.1% vs 0.2% system failures; 3% vs 8% paused.
    """
    def split(records: list[DownloadRecord]) -> dict[str, float]:
        n = len(records)
        if n == 0:
            return {}
        completed = sum(1 for r in records if r.outcome == OUTCOME_COMPLETED)
        aborted = sum(1 for r in records if r.outcome == OUTCOME_ABORTED)
        failed = n - completed - aborted
        failed_system = sum(
            1 for r in records
            if r.outcome == "failed" and r.failure_class == "system"
        )
        return {
            "completed": completed / n,
            "aborted": aborted / n,
            "failed": failed / n,
            "failed_system": failed_system / n,
            "failed_other": (failed - failed_system) / n,
        }

    infra = [r for r in logs.downloads if not r.p2p_enabled]
    p2p = [r for r in logs.downloads if r.p2p_enabled]
    return {
        "infrastructure": split(infra),
        "peer_assisted": split(p2p),
    }


# ------------------------------------------------------------------ Figure 8


def figure8_country_contributions(
    logs: LogStore,
    geodb: GeoDatabase,
    cp_code: int | None = None,
) -> dict[str, str]:
    """Per-country peer-contribution class for one provider (Figure 8).

    Classes (paper's marker shapes): ``"infra"`` — infrastructure served
    more bytes than the peers; ``"peers_half"`` — infrastructure served
    between 50% and 100% of what the peers served; ``"peers_major"`` —
    infrastructure served less than 50% of the peers' bytes.
    """
    edge: Counter = Counter()
    peers: Counter = Counter()
    for rec in logs.downloads:
        if rec.outcome != OUTCOME_COMPLETED:
            continue
        if cp_code is not None and rec.cp_code != cp_code:
            continue
        geo = geodb.get(rec.ip)
        if geo is None:
            continue
        edge[geo.country_code] += rec.edge_bytes
        peers[geo.country_code] += rec.peer_bytes

    result: dict[str, str] = {}
    for country in set(edge) | set(peers):
        e, p = edge.get(country, 0), peers.get(country, 0)
        if e > p:
            result[country] = "infra"
        elif p > 0 and e >= 0.5 * p:
            result[country] = "peers_half"
        else:
            result[country] = "peers_major"
    return result
