"""A minimal, fast discrete-event simulation engine (DESIGN.md §10).

Time is kept in integer nanoseconds. Events scheduled for the same timestamp
fire in scheduling order (FIFO), which keeps the simulation deterministic.
The queue is a binary heap of distinct ``int`` instants, compared in C, plus
one list of events per instant. Lists are only ever appended to, so list
order is scheduling order and no tie-breaking serial is needed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

#: Sentinel for "run with no time bound" (compares greater than any int).
_NO_LIMIT = float("inf")


class Event:
    """A scheduled callback, built by :meth:`Engine.schedule` and returned for
    cancellation. ``engine`` is cleared once the event leaves the queue."""

    __slots__ = ("time", "fn", "args", "cancelled", "engine")

    def cancel(self) -> None:
        """Prevent this event from firing. Safe to call multiple times.

        The callback is dropped at once, so a dead timer pins nothing
        alive. The last entry of its instant (arm-then-cancel) is popped
        outright; if that empties the instant, its heap entry is dropped
        when it is the heap's last leaf and otherwise goes stale, to be
        skipped when popped. Any other event is flagged and skipped at
        drain."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None  # type: ignore[assignment]  # break closure refs
        self.args = ()
        engine = self.engine
        if engine is None:
            return
        engine.events_cancelled += 1
        buckets = engine._buckets
        bucket = buckets[self.time]
        if bucket[-1] is self:
            bucket.pop()
            self.engine = None
            engine._queued -= 1
            if not bucket:
                del buckets[self.time]
                times = engine._times
                if times[-1] == self.time:
                    times.pop()  # a heap's last entry is a leaf: no stale entry
            return
        engine._cancelled_in_queue += 1


class Engine:
    """Event loop with integer-nanosecond virtual time."""

    def __init__(self) -> None:
        self.now: int = 0  # ns; a plain attribute: the most-read field
        self._stopped = False
        #: Heap of instants. Every key of ``_buckets`` has an entry here,
        #: except the instant being drained; entries without a bucket are
        #: stale and skipped.
        self._times: List[int] = []
        #: Instant -> its events in scheduling order. While an instant
        #: drains, its consumed entries are ``None``.
        self._buckets: Dict[int, List[Optional[Event]]] = {}
        self._queued = 0  # events in _buckets, flagged ones included
        self._cancelled_in_queue = 0
        self.events_fired = 0
        #: Cumulative count of cancel() calls on still-queued events.
        self.events_cancelled = 0

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self.schedule(time - self.now, fn, *args)

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.now + delay
        # Slots assigned directly: an __init__ frame per event is measurable.
        event = Event.__new__(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.engine = self
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heappush(self._times, time)
        else:
            bucket.append(event)
        self._queued += 1
        return event

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains, ``stop()`` is called, or
        virtual time would exceed ``until``.

        Returns the final virtual time. When ``until`` is given, the clock is
        advanced to exactly ``until`` even if the queue drained earlier, so
        rate computations over the interval remain well-defined.
        """
        self._stopped = False
        limit = _NO_LIMIT if until is None else until
        times = self._times
        buckets = self._buckets
        fired = 0
        try:
            while times and not self._stopped:
                time = times[0]
                if time > limit:
                    break
                heappop(times)
                bucket = buckets.get(time)
                if bucket is None:
                    continue  # stale: cancels emptied this instant
                # The list iterator reaches events that callbacks append to
                # this instant in this same pass, in order. Consumed slots
                # are nulled so mid-callback audits never see spent events.
                index = 0
                try:
                    for event in bucket:
                        bucket[index] = None
                        index += 1
                        self._queued -= 1
                        event.engine = None
                        if event.cancelled:
                            self._cancelled_in_queue -= 1
                            continue
                        self.now = time
                        fired += 1
                        args = event.args
                        if args:
                            event.fn(*args)
                        else:
                            event.fn()
                        if self._stopped:
                            break
                finally:
                    if index < len(bucket):
                        # stop() or a raising callback interrupted the
                        # instant: keep its unfired tail queued.
                        del bucket[:index]
                        heappush(times, time)
                    else:
                        del buckets[time]
        finally:
            self.events_fired += fired
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def pending_events(self) -> int:
        """Number of queued, non-cancelled events. O(1)."""
        return self._queued - self._cancelled_in_queue

    def _iter_queued(self):
        """Every queued event (not the ``None`` slots of a draining instant)."""
        for bucket in self._buckets.values():
            for event in bucket:
                if event is not None:
                    yield event

    def audit_counts(self) -> dict:
        """Exact queue-hygiene counters for the conservation auditor.

        Recounts cancelled events with an O(n) sweep over every instant, so
        the lazily-maintained cancellation counter can be cross-checked
        against ground truth (see :mod:`repro.core.audit`).
        """
        queued = 0
        recount = 0
        for event in self._iter_queued():
            queued += 1
            if event.cancelled:
                recount += 1
        return {
            "queued": queued,
            "cancelled_tracked": self._cancelled_in_queue,
            "cancelled_recount": recount,
            "pending": self.pending_events(),
        }
