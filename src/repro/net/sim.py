"""Discrete-event simulation engine.

The whole reproduction runs on simulated time: the control plane, the edge
servers, the peers, and the fluid bandwidth model are all driven by a single
:class:`Simulator` event loop.  The engine is intentionally small — a binary
heap of timestamped callbacks plus a handful of conveniences (recurring
timers, cancellable events, a monotonic tiebreaker so same-time events fire
in scheduling order).  A recurring timer is a :class:`Clock`, which can
suspend through an idle phase and wake on its own grid.

The heap holds plain ``(time, seq, event)`` tuples — the hot loop pushes and
pops millions of entries per run, and tuple comparison is several times
cheaper than a ``dataclass(order=True)`` wrapper.  Post-event hooks let the
flow network settle batched rate mutations at every event boundary (see
:mod:`repro.net.flows`), and cheap counters (events processed, heap pushes,
stale pops) feed the perf observability surface.

Time is a ``float`` number of seconds since the start of the simulated trace.
Nothing in the engine knows about wall-clock dates; the workload layer maps
simulated seconds onto calendar days when it needs diurnal patterns.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

__all__ = ["Clock", "Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and can be cancelled
    with :meth:`cancel`.  A cancelled event stays in the heap but is skipped
    when popped; this makes cancellation O(1).
    """

    __slots__ = ("time", "callback", "cancelled", "fired", "dormant", "_sim")

    def __init__(self, time: float, callback: Callable[[], None],
                 sim: "Simulator"):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self.dormant = False  # a suspended Clock's queued entry (see there)
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; no-op if already fired."""
        if not (self.cancelled or self.fired):
            self._sim._live -= 1
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<Event t={self.time:.3f} {state}>"


class Clock:
    """A recurring timer on a fixed grid (:meth:`Simulator.every`).

    An :class:`Event`-compatible handle (``cancel``, ``pending``, ``time``)
    that can also :meth:`suspend` and :meth:`wake` on its grid.  Each arming
    pushes a new entry (re-pushed by each tick after its callback); reusing
    one a suspend cancelled would revive its stale heap entry.

    ``suspend(keep_order=True)`` instead leaves the entry queued *dormant*:
    popped, it re-keys one interval on with a fresh sequence number, as the
    never-suspended twin's no-op tick would re-arm, and counts as no event;
    :meth:`wake` just revives it, so the clock fires in the twin's place
    among the events of its instant (DESIGN.md §7).
    """

    __slots__ = ("interval", "until", "next_at", "suspended", "_callback",
                 "_sim", "_entry")

    def __init__(self, sim: "Simulator", interval: float,
                 callback: Callable[[], None], until: Optional[float]):
        self.interval, self.until = interval, until
        self._callback, self._sim = callback, sim
        #: Grid cursor: the pending tick's instant, or the next one if suspended.
        self.next_at = sim.now + interval
        self.suspended = True
        self._entry: Optional[Event] = None
        self.wake()  # every arming is a wake

    def _tick(self) -> None:
        entry = self._entry
        if not entry.dormant:
            self._callback()
            if self._entry is not entry:  # cancelled, or suspended out of order
                return
        next_at = self._sim._now + self.interval
        if self.until is not None and next_at > self.until:
            self._entry = None
            self.suspended = False  # stopped: nothing to wake
            return
        entry.time = self.next_at = next_at
        entry.fired = False
        self._sim._push(entry)
        if self.suspended:  # queued dormant: not live
            entry.cancelled = entry.dormant = True
            self._sim._live -= 1

    time = property(lambda self: self.next_at,
                    doc="The pending tick's instant (as :attr:`Event.time`).")

    @property
    def pending(self) -> bool:
        """True while a tick is queued."""
        return self._entry is not None and self._entry.pending

    def cancel(self) -> None:
        """Stop for good; a later :meth:`wake` is a no-op."""
        if self._entry is not None:
            self._entry.cancel()
            self._entry.dormant = False  # a plain stale entry now
            self._entry = None
        self.suspended = False

    def suspend(self, *, keep_order: bool = False) -> None:
        """Stop ticking and keep the next grid instant: the pending tick's,
        or ``now + interval`` inside the clock's own tick, the only place
        ``keep_order`` (the class docstring) is allowed."""
        entry = self._entry
        if entry is None or self.suspended:
            return
        if keep_order:
            if not entry.fired:
                raise SimulationError("keep_order suspends only inside the "
                                      "clock's own tick")
            self.suspended = True  # the tick queues its entry dormant
            return
        if entry.fired:  # inside its own tick: nothing queued
            self.next_at = self._sim._now + self.interval
        self.cancel()
        self.suspended = True

    def catch_up(self) -> int:
        """Move the cursor past every grid instant already due
        (:meth:`Simulator.due`); return how many it passed."""
        due, passed = self._sim.due, 0
        while due(self.next_at):
            self.next_at += self.interval
            passed += 1
        return passed

    def wake(self) -> None:
        """Re-arm a suspended clock: revive its dormant entry if it suspended
        in order, else queue the first grid instant not yet due."""
        if not self.suspended:
            return
        self.suspended = False
        entry = self._entry
        if entry is None:
            self.catch_up()
            self._entry = Event(self.next_at, self._tick, self._sim)
            self._sim._push(self._entry)
        elif entry.dormant:  # else suspended in this very tick, not queued yet
            entry.cancelled = entry.dormant = False
            self._sim._live += 1


class Simulator:
    """A minimal discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._in_event = False
        self._live = 0  # pending (not-fired, not-cancelled) queued events
        self._post_event_hooks: list[Callable[[], None]] = []
        self._audit_hook: Optional[Callable[[], None]] = None
        self._audit_every = 0
        self._audit_countdown = 0
        self.events_processed = 0
        self.heap_pushes = 0
        self.stale_pops = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def in_event(self) -> bool:
        """True while an event callback is executing."""
        return self._in_event

    def add_post_event_hook(self, hook: Callable[[], None]) -> None:
        """Register ``hook`` to run after every event callback.

        Hooks run in registration order, after the callback returns and
        before the next event is popped — the flow network uses this to
        settle each event's batched rate mutations at the event boundary.
        """
        self._post_event_hooks.append(hook)

    def set_audit_hook(self, hook: Callable[[], None], *, every_events: int) -> None:
        """Register ``hook`` to run every ``every_events`` processed events.

        Unlike a recurring timer, the audit hook lives outside the event
        queue: it consumes no heap slots, draws no randomness, and runs
        *after* the post-event hooks, so the flow network has already
        settled the event's batched rate mutations when it fires.  That
        keeps fixed-seed runs byte-identical whether auditing is on or off.
        Exceptions raised by the hook propagate out of :meth:`run` (strict
        invariant mode relies on this).
        """
        if every_events <= 0:
            raise SimulationError(
                f"audit cadence must be positive, got {every_events}"
            )
        self._audit_hook = hook
        self._audit_every = every_events
        self._audit_countdown = every_events

    def _push(self, event: Event) -> None:
        heapq.heappush(self._queue, (event.time, next(self._seq), event))
        self._live += 1
        self.heap_pushes += 1

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay schedules the callback
        to run after the currently executing event (same timestamp).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.3f}s in the past")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulated time (not NaN)."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.3f} (now is t={self._now:.3f})"
            )
        event = Event(time, callback, self)
        self._push(event)
        return event

    def every(self, interval: float, callback: Callable[[], None], *,
              until: Optional[float] = None) -> Clock:
        """Run ``callback`` every ``interval`` seconds from now on; a tick
        re-arms only up to ``until``.  Returns the :class:`Clock`."""
        if not interval > 0:
            raise SimulationError(f"recurring interval must be positive, got {interval}")
        return Clock(self, interval, callback, until)

    def due(self, t: float) -> bool:
        """Has an event at ``t`` had its turn?  At ``t == now``: outside the
        loop yes (``run(until=now)`` fired it), inside an event not yet."""
        return t < self._now or (t == self._now and not self._in_event)

    def run(self, until: Optional[float] = None) -> None:
        """Process events in timestamp order.

        Stops when the queue is empty or the next event is later than
        ``until``.  When ``until`` is given, the clock is advanced to
        ``until`` even if no event lands exactly there.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        queue = self._queue
        hooks = self._post_event_hooks
        try:
            while queue:
                time, _seq, event = queue[0]
                if until is not None and time > until:
                    break
                heapq.heappop(queue)
                if event.cancelled or event.fired:
                    if not event.dormant:
                        self.stale_pops += 1
                        continue
                    self._now = time
                    event.callback()  # the twin's no-op tick: no event
                else:
                    self._now = time
                    event.fired = True
                    self._live -= 1
                    self._in_event = True
                    try:
                        event.callback()
                    finally:
                        self._in_event = False
                    for hook in hooks:
                        hook()
                    self.events_processed += 1
                if self._audit_every:
                    self._audit_countdown -= 1
                    if self._audit_countdown <= 0:
                        self._audit_countdown = self._audit_every
                        self._audit_hook()
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until

    def pending_count(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue.

        O(1): maintained as a live counter on schedule/fire/cancel instead
        of scanning the heap (monitoring paths poll this).
        """
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.3f} queued={len(self._queue)}>"
