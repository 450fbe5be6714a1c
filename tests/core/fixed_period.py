"""The fixed-period edge backstop and registration refresh: the oracle the
idling clocks are held to.

:class:`repro.core.swarm.DownloadSession` suspends its backstop clock after
a tick that did nothing, and :class:`repro.core.peer.PeerNode` suspends its
refresh clock after a refresh that could only count itself; wake sources
re-arm each in the fixed-period clock's own place.  :func:`fixed_period`
patches both suspend hooks to no-ops, so every tick fires: the clocks the
goldens were first recorded with.  It changes the clock policy only.

Test code, not a setting: ``tests/core/test_idle_timers.py`` runs the same
scenes both ways and compares every observable with ``==``.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.core.peer import PeerNode
from repro.core.swarm import DownloadSession

__all__ = ["EVENT_ONLY", "fixed_period", "observables"]

#: Counters that count heap work or requests, not outcomes: the simulator's
#: events, pushes, stale pops and pending entries, and the control requests
#: (a skipped empty refresh is one request fewer).
EVENT_ONLY = frozenset({
    "events_processed", "sim_heap_pushes", "sim_stale_pops", "pending_events",
    "ctrl_requests",
})


@contextmanager
def fixed_period():
    """Run the block with both clocks ticking every period."""
    with mock.patch.object(DownloadSession, "_idle_backstop", lambda self: None), \
            mock.patch.object(PeerNode, "_idle_refresh", lambda self: None):
        yield


def observables(logstore, stats) -> tuple:
    """Every download, login and registration record, field by field, and
    every counter outside :data:`EVENT_ONLY`."""
    records = [(kind, tuple(vars(record).values()))
               for kind, store in (("d", logstore.downloads),
                                   ("l", logstore.logins),
                                   ("r", logstore.registrations))
               for record in store]
    counters = {name: value for name, value in stats.as_dict().items()
                if name not in EVENT_ONLY}
    return records, counters
