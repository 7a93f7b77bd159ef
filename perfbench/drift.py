"""Machine-speed drift correction.

On a shared machine the same pure-Python work can take 1.5 times longer
from one moment to the next. Every timed interval is therefore paired
with timings of a fixed reference unit (a bitmask 5-queens count, about
25 microseconds), taken in two ways:

- in the interval: SIGALRM fires every millisecond and its handler times
  one unit, so the samples follow speed changes inside a long task;
- around it: a loop of REF_UNITS units right before and right after.

The unit time during the interval is estimated as the mean over all
those unit timings, the two loops counting as REF_WEIGHT samples. A
time is corrected by multiplying it by UNIT_NOMINAL_S over that
estimate, so corrected times are in seconds of a machine on which the
unit takes UNIT_NOMINAL_S. The handler's own time is left out of every
interval: ``now`` is the process CPU time minus the time spent sampling.
"""

from __future__ import annotations

import signal
import time

UNIT_NOMINAL_S = 25e-6
INTERVAL_S = 0.001
REF_UNITS = 100
REF_WEIGHT = 10


def _queens(n: int) -> int:
    full = (1 << n) - 1

    def place(cols: int, left: int, right: int) -> int:
        if cols == full:
            return 1
        count = 0
        free = full & ~(cols | left | right)
        while free:
            bit = free & -free
            free ^= bit
            count += place(cols | bit, ((left | bit) << 1) & full, (right | bit) >> 1)
        return count

    return place(0, 0, 0)


def unit() -> int:
    return _queens(5)


class DriftMeter:
    """Times intervals and corrects them for machine-speed drift."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.sampled = 0.0  # CPU seconds spent in the handler so far
        self.samples: list[float] = []
        self.before = self.reference()
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = self.clock()
        unit()
        spent = self.clock() - start
        self.samples.append(spent)
        self.sampled += spent

    def settle(self) -> None:
        """Take a fresh reference loop to stand before the next interval."""
        self.before = self.reference()

    def now(self) -> float:
        """Process CPU time, less the time spent sampling."""
        return self.clock() - self.sampled

    def reference(self) -> float:
        """Mean seconds of one unit over a loop of REF_UNITS units."""
        start = self.clock()
        for _ in range(REF_UNITS):
            unit()
        return (self.clock() - start) / REF_UNITS

    def measure(self, fn, *args):
        """Run ``fn(*args)``; return (result, raw seconds, drift factor).

        The factor multiplies a raw time into corrected seconds. The loop
        after this interval is the loop before the next one.
        """
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = self.now()
        try:
            result = fn(*args)
        finally:
            # stop the timer before reading the clock, so that every sample
            # taken lies inside the interval
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            raw = self.now() - start
        after = self.reference()
        inside = self.samples
        estimate = (REF_WEIGHT * (self.before + after) / 2 + sum(inside)) / (REF_WEIGHT + len(inside))
        self.before = after
        return result, raw, UNIT_NOMINAL_S / estimate
