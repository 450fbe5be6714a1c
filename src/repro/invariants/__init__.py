"""repro.invariants — a sanitizer-style runtime invariant-audit layer.

The paper's headline numbers (70–80% offload at no reliability cost, §5)
are only as credible as the simulator's conservation laws.  This package
keeps those laws checked *while the system runs*, ASan/TSan-style, instead
of only in a handful of end-to-end tests:

* **byte conservation** — per-session source counters equal the verified
  piece bytes, exactly; end-of-run, CN download records reconcile against
  the trusted edge-server logs and the accounting ledger re-aggregates.
* **flow feasibility** — the water-filler never over-commits a link, in
  both the batched and reference settlement modes.
* **directory / soft-state consistency** — every DN entry maps to a known
  replica; drift the protocol tolerates (lost unregisters, TTL windows) is
  recorded as warnings, never raised.
* **NAT/reachability symmetry**, **event-heap time monotonicity**, and
  **control-channel breaker-state sanity**.

Modes (``SystemConfig.invariants``, env ``REPRO_INVARIANTS``): ``observe``
(default — record structured :class:`InvariantViolation` reports, surfaced
via ``SystemStats``, drill reports, and ``repro audit``), ``strict`` (tests
and CI — raise :class:`InvariantViolationError` on the first error), and
``off``.
"""

from repro.invariants.auditor import InvariantAuditor, InvariantStats
from repro.invariants.checkers import CHECKERS, Checker, register_checker
from repro.invariants.violation import (
    ERROR, WARNING, InvariantViolation, InvariantViolationError,
)

__all__ = [
    "CHECKERS", "Checker", "ERROR", "WARNING",
    "InvariantAuditor", "InvariantStats", "InvariantViolation",
    "InvariantViolationError", "register_checker",
]
