"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.net.sim import Clock, Event, SimulationError, Simulator


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=42.0).now == 42.0

    def test_callback_fires_at_scheduled_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_zero_delay_runs_after_current_event(self):
        sim = Simulator()
        order = []
        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("nested"))
        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "nested"]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        seen = []
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            sim.schedule(t, lambda t=t: seen.append(t))
        sim.run()
        assert seen == sorted(seen)

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == list(range(10))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_arbitrary_delays_fire_sorted(self, delays):
        sim = Simulator()
        seen = []
        for d in delays:
            sim.schedule(d, lambda d=d: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_remaining_events_fire_on_second_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        sim.run()
        assert seen == [10]

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        error: list[Exception] = []
        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                error.append(exc)
        sim.schedule(1.0, reenter)
        sim.run()
        assert len(error) == 1

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append(1))
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_property(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert event.pending
        sim.run()
        assert not event.pending

    def test_cancel_from_another_callback(self):
        sim = Simulator()
        seen = []
        later = sim.schedule(2.0, lambda: seen.append(2))
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert seen == []


class TestRecurring:
    def test_every_fires_repeatedly(self):
        sim = Simulator()
        seen = []
        sim.every(10.0, lambda: seen.append(sim.now))
        sim.run(until=35.0)
        assert seen == [10.0, 20.0, 30.0]

    def test_every_until_bound(self):
        sim = Simulator()
        seen = []
        sim.every(10.0, lambda: seen.append(sim.now), until=25.0)
        sim.run(until=100.0)
        assert seen == [10.0, 20.0]

    def test_cancelling_recurring_event_stops_it(self):
        sim = Simulator()
        seen = []
        event = sim.every(10.0, lambda: seen.append(sim.now))
        sim.schedule(25.0, event.cancel)
        sim.run(until=100.0)
        assert seen == [10.0, 20.0]

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)

    def test_nan_times_rejected(self):
        # NaN fails every comparison, so ``< now`` / ``<= 0`` let it into
        # the heap; the checks are written so that it fails them instead.
        sim = Simulator()
        nan = float("nan")
        for call in (lambda: sim.schedule(nan, lambda: None),
                     lambda: sim.schedule_at(nan, lambda: None),
                     lambda: sim.every(nan, lambda: None)):
            with pytest.raises(SimulationError):
                call()
        assert sim.heap_pushes == 0 and sim.pending_count() == 0

    def test_cancel_recurring_from_its_own_callback(self):
        # A recurring callback that decides "I'm done" mid-fire must be able
        # to cancel itself; tick() re-checks cancelled after the callback.
        sim = Simulator()
        seen = []
        event = None
        def cb():
            seen.append(sim.now)
            if len(seen) == 3:
                event.cancel()
        event = sim.every(10.0, cb)
        sim.run(until=100.0)
        assert seen == [10.0, 20.0, 30.0]

    def test_cancel_recurring_from_own_callback_then_nothing_pending(self):
        sim = Simulator()
        event = None
        def cb():
            event.cancel()
        event = sim.every(5.0, cb)
        sim.run(until=100.0)
        assert sim.pending_count() == 0
        assert not event.pending


class TestEdgeCases:
    def test_schedule_at_exactly_now(self):
        # An absolute time equal to the clock is not "in the past": it runs
        # after the current event, at the same timestamp.
        sim = Simulator(start_time=10.0)
        seen = []
        sim.schedule_at(10.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10.0]
        assert sim.now == 10.0

    def test_schedule_at_now_from_inside_callback(self):
        sim = Simulator()
        order = []
        def outer():
            order.append("outer")
            sim.schedule_at(sim.now, lambda: order.append("inner"))
        sim.schedule(5.0, outer)
        sim.schedule(5.0, lambda: order.append("sibling"))
        sim.run()
        assert order == ["outer", "sibling", "inner"]

    def test_same_time_mixed_sources_fire_in_scheduling_order(self):
        # One-shots and a recurring timer landing on the same timestamp
        # fire in the order they were (re)scheduled: the recurring event
        # re-enters the heap when it fires, so at t=20 it was scheduled
        # (at t=10) before the one-shot created at t=15.
        sim = Simulator()
        order = []
        sim.every(10.0, lambda: order.append(("every", sim.now)))
        sim.schedule(15.0, lambda: sim.schedule(5.0, lambda: order.append(("oneshot", sim.now))))
        sim.run(until=25.0)
        assert order == [("every", 10.0), ("every", 20.0), ("oneshot", 20.0)]


class TestCounters:
    def test_events_processed_counts_fired_callbacks(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5
        assert sim.heap_pushes == 5

    def test_stale_pops_count_cancelled_entries(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        events[1].cancel()
        events[2].cancel()
        sim.run()
        assert sim.events_processed == 2
        assert sim.stale_pops == 2

    def test_pending_count_is_live_event_count(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(6)]
        assert sim.pending_count() == 6
        events[0].cancel()
        assert sim.pending_count() == 5
        events[0].cancel()  # double-cancel must not double-decrement
        assert sim.pending_count() == 5
        sim.run(until=3.5)
        assert sim.pending_count() == 3

    def test_in_event_true_only_inside_callbacks(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.in_event))
        assert not sim.in_event
        sim.run()
        assert seen == [True]
        assert not sim.in_event

    def test_post_event_hook_runs_after_every_callback(self):
        sim = Simulator()
        order = []
        sim.add_post_event_hook(lambda: order.append("hook"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "hook", "b", "hook"]


class _Rescheduled:
    """The cancel-and-reschedule sequence a :class:`Clock` must match push
    for push: a chain of one-shots (each re-pushed after its callback),
    cancelled to suspend and rescheduled on the grid to wake."""

    def __init__(self, sim, interval, callback):
        self.sim, self.interval, self.callback = sim, interval, callback
        self.next_at = sim.now + interval
        self.event = sim.schedule_at(self.next_at, self._tick)

    def _tick(self):
        self.callback()
        self.next_at = self.sim.now + self.interval
        self.event = self.sim.schedule_at(self.next_at, self._tick)

    def suspend(self):
        if self.event is not None:
            self.event.cancel()
            self.event = None

    def wake(self):  # only ever called outside the event loop
        if self.event is None:
            while self.next_at <= self.sim.now:
                self.next_at += self.interval
            self.event = self.sim.schedule_at(self.next_at, self._tick)


def _counters(sim):
    return sim.heap_pushes, sim.stale_pops, sim.pending_count()


class TestClock:
    def test_every_returns_an_event_compatible_clock(self):
        sim = Simulator()
        clock = sim.every(10.0, lambda: None)
        assert isinstance(clock, Clock)
        assert clock.pending and clock.time == clock.next_at == 10.0
        sim.run(until=25.0)
        assert clock.time == clock.next_at == 30.0
        clock.cancel()
        assert not clock.pending and sim.pending_count() == 0

    def test_suspend_outside_the_tick_keeps_the_pending_instant(self):
        sim = Simulator()
        seen = []
        clock = sim.every(1.0, lambda: seen.append(sim.now))
        sim.run(until=2.5)
        clock.suspend()
        assert clock.suspended and not clock.pending
        assert clock.next_at == 3.0 and sim.pending_count() == 0
        sim.run(until=10.0)
        assert seen == [1.0, 2.0] and sim.stale_pops == 1
        clock.wake()  # outside an event, the instant at now (10.0) is due
        assert clock.pending and clock.next_at == 11.0
        sim.run(until=12.5)
        assert seen == [1.0, 2.0, 11.0, 12.0]

    def test_suspend_inside_its_own_tick_keeps_the_next_instant(self):
        sim = Simulator()
        seen = []

        def tick():
            seen.append(sim.now)
            if sim.now == 2.0:
                clock.suspend()

        clock = sim.every(1.0, tick)
        sim.run(until=5.5)
        assert seen == [1.0, 2.0] and clock.suspended
        assert clock.next_at == 3.0
        # Nothing was queued to cancel: no stale entry, no re-push.
        assert _counters(sim) == (2, 0, 0)
        clock.wake()
        sim.run(until=7.5)
        assert seen == [1.0, 2.0, 6.0, 7.0]

    def test_due_rule_at_now(self):
        sim = Simulator(start_time=5.0)
        assert sim.due(4.0) and sim.due(5.0) and not sim.due(5.5)
        inside = []
        sim.schedule(0.0, lambda: inside.append((sim.due(4.9), sim.due(5.0))))
        sim.run()
        assert inside == [(True, False)]

    def test_wake_on_a_grid_instant_inside_and_outside_an_event(self):
        # Inside an event the grid instant at now is not yet due, so the
        # woken clock fires it right after the waking event; outside one,
        # run(until=now) has had its turn and the clock skips to the next.
        def run(wake_inside: bool) -> list[float]:
            sim = Simulator()
            seen = []
            clock = sim.every(1.0, lambda: seen.append(sim.now))
            sim.run(until=1.5)
            clock.suspend()
            if wake_inside:
                sim.schedule_at(4.0, clock.wake)
            sim.run(until=4.0)
            if not wake_inside:
                clock.wake()
            sim.run(until=5.5)
            return seen

        assert run(wake_inside=True) == [1.0, 4.0, 5.0]
        assert run(wake_inside=False) == [1.0, 5.0]

    def test_cancel_while_suspended_then_wake_is_a_no_op(self):
        sim = Simulator()
        seen = []
        clock = sim.every(1.0, lambda: seen.append(sim.now))
        sim.run(until=1.5)
        clock.suspend()
        clock.cancel()
        assert not (clock.suspended or clock.pending)
        pushes = sim.heap_pushes
        clock.wake()
        sim.run(until=10.0)
        assert seen == [1.0]
        assert sim.heap_pushes == pushes and sim.pending_count() == 0

    def test_suspend_and_wake_are_no_ops_out_of_phase(self):
        sim = Simulator()
        clock = sim.every(1.0, lambda: None)
        clock.wake()  # armed: nothing to wake
        assert sim.heap_pushes == 1 and clock.pending
        clock.suspend()
        clock.suspend()  # suspended: nothing left to cancel
        assert clock.suspended and clock.next_at == 1.0
        assert _counters(sim) == (1, 0, 0)

    def test_wake_before_the_stale_instant_fires_each_instant_once(self):
        # The suspend leaves the 3.0 entry stale in the heap; the wake at
        # 2.5 re-arms 3.0 with a heap entry of its own.  Reviving the stale
        # one would fire 3.0 twice.
        clocked, rescheduled = Simulator(), Simulator()
        seen_c, seen_r = [], []
        clock = clocked.every(1.0, lambda: seen_c.append(clocked.now))
        ref = _Rescheduled(rescheduled, 1.0,
                           lambda: seen_r.append(rescheduled.now))
        for sim, timer in ((clocked, clock), (rescheduled, ref)):
            sim.run(until=2.5)
            timer.suspend()
            timer.wake()
        assert clock.next_at == 3.0
        assert _counters(clocked) == _counters(rescheduled) == (4, 0, 1)
        for sim in (clocked, rescheduled):
            sim.run(until=5.5)
        assert seen_c == seen_r == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _counters(clocked) == _counters(rescheduled) == (7, 1, 1)

    @given(st.lists(st.tuples(st.floats(0.0, 3.0),
                              st.sampled_from(["suspend", "wake"])),
                    max_size=12),
           st.sampled_from([1.0, 0.7, 0.1]))
    def test_matches_cancel_and_reschedule(self, steps, interval):
        clocked, rescheduled = Simulator(), Simulator()
        seen_c, seen_r = [], []
        clock = clocked.every(interval, lambda: seen_c.append(clocked.now))
        ref = _Rescheduled(rescheduled, interval,
                           lambda: seen_r.append(rescheduled.now))
        at = 0.0
        for gap, action in steps:
            at += gap
            for sim, timer in ((clocked, clock), (rescheduled, ref)):
                sim.run(until=at)
                getattr(timer, action)()
            assert _counters(clocked) == _counters(rescheduled)
        for sim in (clocked, rescheduled):
            sim.run(until=at + 5.0)
        assert seen_c == seen_r
        assert _counters(clocked) == _counters(rescheduled)


def _keep_order_run(script, *, idle: bool):
    """Three clocks (two armed in one event: one grid) whose ticks act only
    while their flag is up.  ``script`` is ``(time, clock, via_hook)``
    flag raisings, at times that include grid instants; a raising in the
    hook happens in the post-event hook, as a settlement wake does.  With
    ``idle`` a clock whose tick finds its flag down suspends in order, and
    a raising wakes it; without, it ticks through: the twin.  Returns what
    acted, in firing order."""
    sim = Simulator()
    log, up, clocks, raised = [], [True, True, True], [], []

    def tick(i):
        if up[i]:
            log.append((sim.now, f"tick{i}"))
            up[i] = False  # acts once per raising
        elif idle:
            clocks[i].suspend(keep_order=True)

    def hook():
        while raised:
            raise_flag(raised.pop())

    def raise_flag(i):
        log.append((sim.now, f"raise{i}"))
        up[i] = True
        if idle:
            clocks[i].wake()

    sim.add_post_event_hook(hook)
    clocks.append(sim.every(1.0, lambda: tick(0)))
    sim.schedule_at(0.5, lambda: clocks.extend(
        [sim.every(1.0, lambda: tick(1)), sim.every(0.75, lambda: tick(2))]))
    for t, i, via_hook in script:
        sim.schedule_at(t, (lambda i=i: raised.append(i)) if via_hook
                        else (lambda i=i: raise_flag(i)))
    sim.run(until=12.0)
    return log


class TestKeepOrder:
    @given(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.25, 1.5, 2.0, 2.25,
                                              3.0, 3.5, 4.5, 5.0, 6.0, 6.5,
                                              7.5, 8.0, 9.5, 10.0]),
                              st.integers(0, 2), st.booleans()),
                    max_size=10))
    def test_matches_the_never_suspended_twin(self, script):
        assert _keep_order_run(script, idle=True) == \
            _keep_order_run(script, idle=False)

    def test_hook_wake_on_its_own_instant_fires_there(self):
        # Clocks 0 and 1 share the grid 1.5, 2.5, ... with 0 first; clock 1
        # idles from 1.5.  Raised in the post-event hook of clock 0's 2.5
        # tick (where ``due(2.5)`` is already true), clock 1 still acts at
        # 2.5: its twin's tick there comes after clock 0's.
        sim = Simulator()
        log, up, clocks = [], [False, False], []

        def tick(i):
            log.append((sim.now, i, up[i]))
            if i == 1 and not up[1]:
                clocks[1].suspend(keep_order=True)
            up[i] = False

        def hook():
            if sim.now == 2.5 and not clocks[1].pending:
                up[1] = True
                clocks[1].wake()

        sim.add_post_event_hook(hook)
        sim.schedule_at(0.5, lambda: clocks.extend(
            [sim.every(1.0, lambda: tick(0)), sim.every(1.0, lambda: tick(1))]))
        sim.run(until=4.0)
        assert log == [(1.5, 0, False), (1.5, 1, False), (2.5, 0, False),
                       (2.5, 1, True), (3.5, 0, False), (3.5, 1, False)]

    def test_keep_order_outside_the_tick_is_refused(self):
        sim = Simulator()
        clock = sim.every(1.0, lambda: None)
        with pytest.raises(SimulationError):
            clock.suspend(keep_order=True)

    def test_a_dormant_clock_stops_at_until_and_cancel_drops_it(self):
        sim = Simulator()
        clocks = []
        clocks.append(sim.every(1.0, lambda: clocks[0].suspend(keep_order=True),
                                until=3.0))
        clocks.append(sim.every(1.0, lambda: clocks[1].suspend(keep_order=True)))
        sim.run(until=5.5)
        assert not clocks[0].suspended  # its twin stopped at 3.0
        clocks[0].wake()
        assert not clocks[0].pending
        assert clocks[1].suspended and clocks[1].next_at == 6.0
        clocks[1].cancel()
        clocks[1].wake()
        sim.run(until=9.0)
        assert sim.events_processed == 2 and sim.pending_count() == 0
