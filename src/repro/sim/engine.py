"""A minimal, fast discrete-event simulation engine (DESIGN.md §10).

Time is kept in integer nanoseconds. Events scheduled for the same timestamp
fire in scheduling order (FIFO), which keeps the simulation deterministic.
The queue is a binary heap of distinct ``int`` instants, compared in C, plus
one list of entries per instant. Lists are only ever appended to, so list
order is scheduling order and no tie-breaking serial is needed.

An entry is a callable, called with no arguments when its instant drains:
either an :class:`Event` (:meth:`Engine.schedule`, the handle a timer needs
to be cancelled) or the bare callable given to :meth:`Engine.post`, for
completions that are never cancelled; those build no object at all.
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

    def __call__(self) -> None:
        """Fire, or, if flagged cancelled, leave the queue unfired."""
        engine = self.engine
        self.engine = None
        if self.cancelled:
            engine._cancelled_in_queue -= 1
            engine.events_fired -= 1  # its instant counted it as fired
            return
        args = self.args
        if args:
            self.fn(*args)
        else:
            self.fn()

    def cancel(self) -> None:
        """Prevent this event from firing. Safe to call multiple times.

        The callback is dropped at once, so a dead timer pins nothing
        alive. The last entry of its instant (arm-then-cancel) is popped
        outright; if that empties the instant, its heap entry is dropped
        when it is the heap's last leaf and otherwise goes stale, to be
        skipped when popped. Any other event, including one of the instant
        being drained, is flagged and skipped at drain."""
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
        bucket = buckets.get(self.time)
        if bucket is not None and bucket[-1] is self:
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


class Posted:
    """A queued :meth:`Engine.post` entry as :meth:`Engine._iter_queued`
    shows it: the fields of an :class:`Event` that can never be cancelled."""

    __slots__ = ("time", "fn")
    args: tuple = ()
    cancelled = False

    def __init__(self, time: int, fn: Callable[[], Any]) -> None:
        self.time = time
        self.fn = fn


class Engine:
    """Event loop with integer-nanosecond virtual time."""

    def __init__(self) -> None:
        self.now: int = 0  # ns; a plain attribute: the most-read field
        self._stopped = False
        #: Heap of instants. Every key of ``_buckets`` has an entry here;
        #: entries without a bucket are stale and skipped.
        self._times: List[int] = []
        #: Instant -> its entries (an ``Event`` or a posted callable) in
        #: scheduling order. The instant being drained is not in it.
        self._buckets: Dict[int, List[Callable[[], Any]]] = {}
        #: The unfired entries of the instant being drained (``now``), in
        #: reverse scheduling order: the drain pops them off the end. What a
        #: callback schedules at ``now`` goes to a fresh bucket of the same
        #: instant, drained right after this one.
        self._draining: List[Callable[[], Any]] = []
        self._queued = 0  # entries in _buckets, flagged events included
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

    def post(self, delay: int, fn: Callable[[], Any]) -> None:
        """Call ``fn()`` after ``delay`` nanoseconds, with no handle.

        For completions nothing ever cancels (a CPU job's finish, a NIC Tx
        drain, a wire delivery, a periodic tick): the callable itself is the
        queue entry, so a caller that hands over a bound method it keeps
        allocates nothing. Same-instant order with :meth:`schedule` is
        scheduling order, as between any two entries.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [fn]
            heappush(self._times, time)
        else:
            bucket.append(fn)
        self._queued += 1

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
        pop_bucket = self._buckets.pop
        fired = 0
        try:
            while times:
                time = heappop(times)
                if time > limit:
                    heappush(times, time)
                    break
                bucket = pop_bucket(time, None)
                if bucket is None:
                    continue  # stale: cancels emptied this instant
                # The whole instant leaves the queue at once, counted as
                # fired; a flagged event uncounts itself when drained.
                count = len(bucket)
                self._queued -= count
                fired += count
                if count > 1:
                    bucket.reverse()
                self._draining = bucket
                self.now = time
                while bucket:
                    bucket.pop()()
                    if self._stopped:
                        break
                if self._stopped:
                    break
        finally:
            tail = self._draining
            if tail:
                # stop() or a raising callback interrupted the instant: its
                # unfired tail stays queued ahead of what was scheduled at
                # the instant since.
                fired -= len(tail)
                self._requeue(tail)
            self.events_fired += fired
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def _requeue(self, tail: List[Callable[[], Any]]) -> None:
        """Put the draining instant's unfired (reversed) ``tail`` back."""
        time = self.now
        entries = tail[::-1]
        tail.clear()
        self._queued += len(entries)
        later = self._buckets.get(time)
        if later is None:
            heappush(self._times, time)
        else:
            entries.extend(later)
        self._buckets[time] = entries

    def pending_events(self) -> int:
        """Number of queued, non-cancelled entries. O(1)."""
        return self._queued + len(self._draining) - self._cancelled_in_queue

    def _iter_queued(self):
        """Every queued entry, the draining instant's unfired ones included:
        each ``Event`` itself, each posted callable as a :class:`Posted`."""
        event_cls = Event
        pending = [(self.now, entry) for entry in reversed(self._draining)]
        for time, bucket in self._buckets.items():
            pending.extend((time, entry) for entry in bucket)
        for time, entry in pending:
            if entry.__class__ is event_cls:
                yield entry
            else:
                yield Posted(time, entry)

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
