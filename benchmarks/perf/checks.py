"""Output correctness: conservation, audit, isolation, bands, digest.

A change meant only to make the simulator faster must leave every
simulated statistic identical; :func:`trace_digest` is where that shows.
The digest is printed and recorded, never pinned in code — a deliberate
RNG rebase (ROADMAP 2) changes it once, on purpose.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass

__all__ = ["check_artifact", "check_bands", "trace_digest", "Tally"]


def trace_digest(artifact) -> str:
    """sha256 over every log record and the end-of-run counters.

    Hashed record by record (field values in declaration order), so the
    digest never holds more than one record's text.
    """
    digest = hashlib.sha256()
    store = artifact.logstore
    for kind, records in (("d", store.downloads), ("l", store.logins),
                          ("r", store.registrations)):
        for record in records:
            digest.update(kind.encode())
            digest.update(repr(tuple(vars(record).values())).encode())
    digest.update(repr(sorted(artifact.stats.as_dict().items())).encode())
    return digest.hexdigest()


@dataclass
class Tally:
    """Byte and outcome totals of download records; add them to pool traces."""

    records: int = 0
    completed: int = 0
    #: *Simulated* failures (disk full, too many corrupt blocks; paper §5.2)
    #: — a statistic of the trace, not a failure of the program under test.
    failed: int = 0
    peer_bytes: int = 0
    edge_bytes: int = 0

    @classmethod
    def of(cls, downloads) -> "Tally":
        return cls(
            records=len(downloads),
            completed=sum(1 for r in downloads if r.outcome == "completed"),
            failed=sum(1 for r in downloads if r.outcome == "failed"),
            peer_bytes=sum(r.peer_bytes for r in downloads),
            edge_bytes=sum(r.edge_bytes for r in downloads),
        )

    def __add__(self, other: "Tally") -> "Tally":
        return Tally(*(a + b for a, b in zip(astuple(self), astuple(other))))

    @property
    def offload_fraction(self) -> float:
        """Peer bytes over all useful bytes (the paper's peer efficiency)."""
        total = self.peer_bytes + self.edge_bytes
        return self.peer_bytes / total if total else 0.0

    @property
    def completion_rate(self) -> float:
        return self.completed / self.records if self.records else 0.0

    @property
    def failed_outcome_share(self) -> float:
        return self.failed / self.records if self.records else 0.0


def check_artifact(artifact) -> list[str]:
    """Every correctness failure of one repetition's artifact ([] = PASS)."""
    failures: list[str] = []
    downloads = artifact.logstore.downloads
    if not downloads:
        return ["no download records"]

    broken = 0
    for record in downloads:
        if record.outcome != "completed":
            continue
        if (record.edge_bytes + record.peer_bytes != record.size
                or sum(record.per_uploader_bytes.values()) != record.peer_bytes):
            broken += 1
    if broken:
        failures.append(
            f"{broken} completed record(s) break byte conservation "
            "(edge+peer != size or sum(per_uploader) != peer)")

    errors = artifact.stats.invariants.errors
    if errors:
        failures.append(f"{errors} invariant error(s)")

    if artifact.config.sharding is not None:
        reconcile = artifact.sharding.get("reconcile", {})
        for key in ("guid_overlap", "cross_region_peer_bytes"):
            if reconcile.get(key) != 0:
                failures.append(f"shard reconcile {key}={reconcile.get(key)!r}")
    return failures


def check_bands(workload, pooled: Tally) -> list[str]:
    """Offload and completion of one whole panel against the workload's
    bands.  Only meaningful at ``SCALE``, where the bands were recorded: a
    twentieth-size swarm legitimately offloads almost nothing."""
    return [
        f"{label} {value:.4f} outside band [{low}, {high}]"
        for label, value, (low, high) in (
            ("offload", pooled.offload_fraction, workload.offload_band),
            ("completion", pooled.completion_rate, workload.completion_band),
        ) if not low <= value <= high
    ]
