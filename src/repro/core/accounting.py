"""Reliable accounting: billing records and accounting-attack filtering.

Goal 3 of NetSession's design (paper §3.1) is reliable accounting for
services provided — content providers pay per byte and expect trustworthy
reports.  But peers are untrusted machines: a compromised client can
misreport its downloads to distort a provider's bill (the *accounting
attacks* of [Aditya et al., NSDI 2012], cited in §3.5 and §6.2).

NetSession's defence is that the infrastructure has its own trusted view:
edge servers log the bytes they actually served.  This service cross-checks
each peer-submitted usage report against the edge logs and rejects reports
whose claimed infrastructure bytes disagree beyond a tolerance.  Peer-to-peer
bytes are additionally sanity-checked against the object size.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.edge import EdgeNetwork
from repro.core.messages import UsageReport

__all__ = ["AccountingService", "BillingSummary"]


@dataclass
class BillingSummary:
    """Aggregated, validated usage for one content provider (CP code)."""

    cp_code: int
    completed_downloads: int = 0
    failed_downloads: int = 0
    aborted_downloads: int = 0
    edge_bytes: int = 0
    peer_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """All validated useful bytes billed to this provider."""
        return self.edge_bytes + self.peer_bytes

    @property
    def offload_fraction(self) -> float:
        """Fraction of this provider's bytes the peers delivered."""
        if self.total_bytes == 0:
            return 0.0
        return self.peer_bytes / self.total_bytes


class AccountingService:
    """Validates usage reports against trusted edge-server state."""

    #: Relative tolerance when comparing claimed vs trusted edge bytes.
    #: Real systems tolerate small skews from in-flight data at report time.
    EDGE_TOLERANCE = 0.02

    def __init__(self, edge: EdgeNetwork):
        self.edge = edge
        self.accepted: list[UsageReport] = []
        self.rejected: list[tuple[UsageReport, str]] = []
        self.billing: dict[int, BillingSummary] = {}
        #: Validated upload credit per uploader GUID (bytes served to others).
        self.upload_credit: dict[str, int] = defaultdict(int)

    def ingest(self, report: UsageReport) -> bool:
        """Validate and (if clean) bill one usage report.

        Returns True when accepted.  Rejection reasons:

        * ``edge-mismatch`` — claimed infrastructure bytes disagree with the
          trusted edge logs (the canonical accounting attack);
        * ``oversized`` — claimed totals exceed the object size (plus
          retransmission slack), impossible for an honest client;
        * ``negative`` — nonsensical byte counts.
        """
        reason = self._validate(report)
        if reason is not None:
            self.rejected.append((report, reason))
            return False
        self.accepted.append(report)

        summary = self.billing.get(report.cp_code)
        if summary is None:
            summary = BillingSummary(cp_code=report.cp_code)
            self.billing[report.cp_code] = summary
        if report.outcome == "completed":
            summary.completed_downloads += 1
        elif report.outcome == "failed":
            summary.failed_downloads += 1
        else:
            summary.aborted_downloads += 1
        summary.edge_bytes += report.claimed_edge_bytes
        summary.peer_bytes += report.claimed_peer_bytes
        for uploader, nbytes in report.per_uploader_bytes.items():
            self.upload_credit[uploader] += nbytes
        return True

    def _validate(self, report: UsageReport) -> str | None:
        if report.claimed_edge_bytes < 0 or report.claimed_peer_bytes < 0:
            return "negative"
        if any(b < 0 for b in report.per_uploader_bytes.values()):
            return "negative"
        per_uploader_total = sum(report.per_uploader_bytes.values())
        if per_uploader_total > report.claimed_peer_bytes * (1 + self.EDGE_TOLERANCE) + 1:
            return "oversized"

        trusted = self.edge.trusted_bytes_served(report.guid, report.cid)
        claimed = report.claimed_edge_bytes
        slack = max(self.EDGE_TOLERANCE * max(trusted, claimed), 1024.0)
        if abs(trusted - claimed) > slack:
            return "edge-mismatch"

        try:
            obj = self.edge.lookup(report.cid)
        except KeyError:
            return "unknown-object"
        # Useful bytes can't exceed the object size; allow retransmission
        # slack on top for corrupted-and-refetched pieces.
        useful = report.claimed_edge_bytes + report.claimed_peer_bytes
        if useful > obj.size * 1.10 + 1024:
            return "oversized"
        return None

    # ------------------------------------------------------------- reporting

    def provider_report(self, cp_code: int) -> BillingSummary:
        """The billing summary for one provider (empty if no traffic)."""
        return self.billing.get(cp_code, BillingSummary(cp_code=cp_code))

    def ledger_drift(self) -> list[str]:
        """Internal-consistency check: billing must equal the accepted log.

        Re-aggregates the accepted reports from scratch and compares the
        result with the incrementally maintained :attr:`billing` summaries
        and :attr:`upload_credit` ledger.  Any discrepancy means the
        incremental bookkeeping diverged from the source of truth — a bug,
        never legitimate drift.  Returns human-readable descriptions (empty
        when consistent); the invariant auditor runs this at end-of-run.
        """
        drift: list[str] = []
        edge_by_cp: dict[int, int] = defaultdict(int)
        peer_by_cp: dict[int, int] = defaultdict(int)
        outcomes_by_cp: dict[int, int] = defaultdict(int)
        credit: dict[str, int] = defaultdict(int)
        for report in self.accepted:
            edge_by_cp[report.cp_code] += report.claimed_edge_bytes
            peer_by_cp[report.cp_code] += report.claimed_peer_bytes
            outcomes_by_cp[report.cp_code] += 1
            for uploader, nbytes in report.per_uploader_bytes.items():
                credit[uploader] += nbytes

        for cp_code, summary in sorted(self.billing.items()):
            n_outcomes = (summary.completed_downloads + summary.failed_downloads
                          + summary.aborted_downloads)
            if summary.edge_bytes != edge_by_cp.get(cp_code, 0):
                drift.append(
                    f"cp {cp_code}: billed edge_bytes {summary.edge_bytes} != "
                    f"accepted-report sum {edge_by_cp.get(cp_code, 0)}"
                )
            if summary.peer_bytes != peer_by_cp.get(cp_code, 0):
                drift.append(
                    f"cp {cp_code}: billed peer_bytes {summary.peer_bytes} != "
                    f"accepted-report sum {peer_by_cp.get(cp_code, 0)}"
                )
            if n_outcomes != outcomes_by_cp.get(cp_code, 0):
                drift.append(
                    f"cp {cp_code}: billed outcome count {n_outcomes} != "
                    f"accepted-report count {outcomes_by_cp.get(cp_code, 0)}"
                )
        for cp_code in edge_by_cp:
            if cp_code not in self.billing:
                drift.append(f"cp {cp_code}: accepted reports but no billing summary")
        for uploader in set(credit) | set(self.upload_credit):
            if self.upload_credit.get(uploader, 0) != credit.get(uploader, 0):
                drift.append(
                    f"uploader {uploader}: credit {self.upload_credit.get(uploader, 0)}"
                    f" != accepted-report sum {credit.get(uploader, 0)}"
                )
        return drift
