"""Host speed probe: times a fixed piece of interpreter work while jobs run.

The host is shared.  Other tenants slow pure-Python code by up to 1.8x for
seconds at a time, and CPU time slows as much as wall time, so neither
clock alone gives figures that repeat.  While a probe is active, a timer
signal every INTERVAL_S runs a fixed loop twice and times the second run:
the first brings the loop's code back into cache after the job evicted it.
The loop adds small cached integers only, so it allocates nothing and
does not depend on the state the job left in the heap.  A stretch of time
is scaled by NOMINAL_S over the median loop time in it.  Not the mean: a
sample the scheduler preempted can read many times the loop's time, and
it would count the preemption about a hundred times over, as samples
cover about 1% of the time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.01
MIN_SAMPLES = 20
# about the loop's median time while jobs ran on the 2-core Xeon VM the
# benchmark was written on (34-55 us there), so that scaled times read
# about as raw times there
NOMINAL_S = 45e-6
_STEPS = tuple(range(256)) * 4


def _loop() -> int:
    total = 0
    for i in _STEPS:
        total = (total + i) & 255
    return total


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def tick(self, signum=None, frame=None):
        _loop()
        t0 = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t0)
        self.times.append(t0)

    def __enter__(self):
        self.times, self.samples = [], []
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median loop time from ``start`` to ``end``; when
        fewer than MIN_SAMPLES fell inside, the MIN_SAMPLES nearest its middle.
        Call it after the probe has stopped, so that samples after ``end``
        are there too."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return NOMINAL_S / statistics.median(self.samples[lo:hi])
