"""The fixed-period playback clock: the oracle the idle-phase clock is held to.

:class:`repro.core.streaming.StreamingSession` stops its clock while a
downloaded stream plays out (one playout-end event replaces the remaining
ticks) and while a paused stream is not playing (``resume`` wakes it on
the same grid).  This subclass never stops it: it ticks every
``playback_tick_s`` through both phases, the clock the goldens were first
recorded with.  It changes the clock policy only: the tick body, the
prefix cursor and the viewer actions are the production ones.

Test code, not a setting: ``tests/core/test_streaming.py`` runs the same
scripted sessions through both clocks and compares every observable.
"""

from __future__ import annotations

from repro.core.streaming import StreamingSession

__all__ = ["FixedClockStreamingSession"]


class FixedClockStreamingSession(StreamingSession):
    """Ticks through every phase, idle or not."""

    def _idle_clock(self) -> None:
        pass
