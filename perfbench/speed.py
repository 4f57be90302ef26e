"""The speed of the host while queries run, for reporting query times in
units that do not move with it.

On a shared machine the speed of the same code swings by more than half
within seconds and drifts over minutes (other tenants, frequency changes).
A fixed piece of pure-Python work, the reference kernel, is timed every
INTERVAL seconds from a timer signal, also in the middle of a query; a
query's time is then divided by the mean kernel time of the samples taken
during it, or of the ones nearest to it when it is too short to contain
NEAREST of them. Interference slows the query and the kernel alike, so the
quotient stays put while each alone swings. Each sample runs the kernel
twice and times the second run, whose data is then in the core's caches:
the sample measures the core's speed, not how much of the caches the query
left it, so a change to topaq's memory use does not move the reference.
The whole sample is taken out of the query's time.
"""

from __future__ import annotations

import bisect
import signal
import time
from itertools import accumulate

INTERVAL = 0.005  # seconds between kernel samples
NEAREST = 10  # a query with fewer samples inside it is set against this many nearest ones


def reference_kernel() -> int:
    """Fixed work of the kind topaq's pipeline does most (hashing small
    tuples and frozensets, dict and set updates); about 0.2 ms on a current
    x86 core. It uses nothing from topaq, so no change to topaq moves it."""
    seen: dict = {}
    frontier = set()
    for i in range(400):
        key = (i % 37, i % 11)
        seen[key] = seen.get(key, 0) + 1
        frontier.add(frozenset((i % 13, i % 7)))
    return len(seen) + len(frontier)


class Speedometer:
    """Samples the kernel from SIGALRM while active (`with speedometer:`).

    `starts`, `durations` (the timed kernel run) and `costs` (the whole
    sample, warm-up included) hold every sample of the run, in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.costs: list[float] = []
        self._busy = False
        self._prefix: list[float] = [0.0]
        self._cost_prefix: list[float] = [0.0]

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        reference_kernel()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t2 - t1)
        self.costs.append(t2 - t0)
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._prefix = [0.0, *accumulate(self.durations)]
        self._cost_prefix = [0.0, *accumulate(self.costs)]

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def net(self, t0: float, t1: float) -> float:
        """Wall seconds from t0 to t1 less the samples taken in between."""
        lo, hi = self._range(t0, t1)
        return (t1 - t0) - (self._cost_prefix[hi] - self._cost_prefix[lo])

    def local_mean(self, t0: float, t1: float) -> float:
        """Mean kernel seconds of the samples taken during [t0, t1], or of
        the NEAREST samples to its middle if fewer were."""
        lo, hi = self._range(t0, t1)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
            hi = min(len(self.starts), lo + NEAREST)
        return (self._prefix[hi] - self._prefix[lo]) / (hi - lo)

    def mean(self) -> float:
        return self._prefix[-1] / len(self.durations)
