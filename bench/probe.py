"""Host-speed probe: converts host seconds into seconds at a reference speed.

On a shared host a core's speed drifts, and fast: on the reference machine a
fixed pure-Python loop ran anywhere from 1.0x to 2.0x its best time, with
3-second windows averaging 1.03x to 1.35x (see bench/README.md). Every
``PERIOD_S`` a SIGALRM handler times ``LOOPS`` iterations of a fixed loop; an
interval's host time, times ``REFERENCE_S`` over the median loop time measured
inside it, is the time the interval would have taken at the reference speed.
The handler reads no simulator state, so results are unchanged; it costs about
0.4% of host time.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import List

PERIOD_S = 0.02
LOOPS = 2000
#: The loop's time on an unloaded core of the reference machine.
REFERENCE_S = 75e-6
#: Intervals shorter than a few periods borrow their nearest samples.
MIN_SAMPLES = 3


class SpeedProbe:
    def __init__(self) -> None:
        self.ends: List[float] = []
        self.durations: List[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(LOOPS):
            acc += i & 7
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def at_reference_speed(self, start: float, end: float) -> float:
        """``end - start`` host seconds, converted to the reference speed."""
        lo, hi = bisect_left(self.ends, start), bisect_right(self.ends, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.ends)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.ends))
        if lo == hi:
            return end - start
        return (end - start) * REFERENCE_S / statistics.median(self.durations[lo:hi])
