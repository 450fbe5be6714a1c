"""What counts as "the same trace": a record half and an event half.

Every table and figure renders from one log set, so the question a change
has to answer is whether it moved that set.  Two digests of a
:class:`~repro.runner.artifact.ScenarioArtifact` answer it:

* :func:`record_digest` — what the analysis layer reads: every download,
  login and registration record, the geodb rows in IP order, the mobility
  and cloning censuses and the finalized-download count.  A change that
  only makes the simulator faster must keep it.
* :func:`event_digest` — the end-of-run simulator counters
  (``stats.as_dict()``: events, heap pushes, settles, RPCs, ...).  A
  performance change may move it; a modelling change usually moves both.

Each record is encoded as a one-letter kind tag plus the ``repr`` of its
field values in declaration order.  It is not pickled: pickle also encodes
object sharing (an in-process run shares strings across records, a pool
worker's unpickled artifact does not), which is representation, not value.
Nothing in a run calls this module; tests and tools do.
"""

from __future__ import annotations

import hashlib

__all__ = ["record_digest", "event_digest"]


def _update(digest, kind: str, values) -> None:
    digest.update(kind.encode())
    digest.update(repr(tuple(values)).encode())


def record_digest(artifact) -> str:
    """sha256 over the log set and everything else the analysis reads."""
    digest = hashlib.sha256()
    store = artifact.logstore
    for kind, records in (("d", store.downloads), ("l", store.logins),
                          ("r", store.registrations)):
        for record in records:
            _update(digest, kind, vars(record).values())
    for ip, record in sorted(artifact.geodb.items()):
        _update(digest, "g", (ip, *vars(record).values()))
    _update(digest, "m", sorted(artifact.mobility_census.items()))
    _update(digest, "c", sorted(artifact.cloning_census.items()))
    _update(digest, "f", (artifact.finalized_downloads,))
    return digest.hexdigest()


def event_digest(artifact) -> str:
    """sha256 over the end-of-run simulator counters."""
    counters = repr(sorted(artifact.stats.as_dict().items()))
    return hashlib.sha256(counters.encode()).hexdigest()
