"""Deterministic discrete-event loop.

Events fire in (time, insertion-order) order, so two runs with the same
seed produce byte-identical traces — a property the checkpoint/replay
tests of :mod:`repro.spider` rely on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from .clock import SimClock

Callback = Callable[[], None]


class Simulator:
    """Event queue plus clock."""

    def __init__(self, start: float = 0.0):
        self.clock = SimClock(start)
        #: (time, insertion order, callback, not a timer).
        self._queue: List[Tuple[float, int, Callback, bool]] = []
        self._counter = itertools.count()
        self._processed = 0
        self._events = 0  # queued non-timers: what run() waits for

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def processed(self) -> int:
        return self._processed

    def at(self, t: float, callback: Callback, timer: bool = False) -> None:
        """Schedule ``callback`` at absolute time ``t``.  A ``timer``
        fires in order like any event, but :meth:`run` does not wait for
        it: a retransmission timer that an ACK made moot must not keep a
        settled network running, nor move its clock."""
        if t < self.now:
            raise ValueError(f"cannot schedule in the past ({t} < {self.now})")
        heapq.heappush(self._queue, (t, next(self._counter), callback,
                                     not timer))
        self._events += not timer

    def after(self, delay: float, callback: Callback,
              timer: bool = False) -> None:
        """Schedule ``callback`` (a ``timer``: see :meth:`at`) later."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.at(self.now + delay, callback, timer)

    def every(self, interval: float, callback: Callback,
              until: Optional[float] = None,
              start: Optional[float] = None) -> None:
        """Schedule a periodic callback (SPIDeR's commitment timer)."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        first = self.now + interval if start is None else start

        def tick() -> None:
            callback()
            next_time = self.clock.now + interval
            if until is None or next_time <= until:
                self.at(next_time, tick)

        if until is None or first <= until:
            self.at(first, tick)

    def step(self) -> bool:
        """Run the next event; False when the queue is empty."""
        if not self._queue:
            return False
        t, _seq, callback, event = heapq.heappop(self._queue)
        self._events -= event
        self.clock.advance_to(t)
        self._processed += 1
        callback()
        return True

    def run_until(self, t: float) -> None:
        """Run all events scheduled at or before ``t``."""
        while self._queue and self._queue[0][0] <= t:
            self.step()
        self.clock.advance_to(max(self.clock.now, t))

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until only timers are left (guarded against runaways)."""
        for _ in range(max_events):
            if not self._events:
                return
            self.step()
        raise RuntimeError(f"simulation exceeded {max_events} events")
