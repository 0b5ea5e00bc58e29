"""A fixed reference task that tracks the host's speed during a run.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed pure-Python loop there takes anywhere from 0.7x to 1.3x its
median time.  Part of the drift lasts minutes, so longer runs do not
average it out, and part changes within a second, so a speed measured
seconds away from an op misjudges it.  The closed loop therefore runs
this probe right before every op (and once after the last).  The probe
does the same kind of work as dfao's hot loops (breadth-first search over
a fixed random transition table, in pure Python) and never changes, so
its time measures the host alone.

Each op's time is then scaled by PROBE_MS / (the median of the probes
nearest to it, the two before it and the three after): the reported times
are what the op would take on a host on which one probe takes PROBE_MS
milliseconds, about an idle core of the 2-vCPU host the benchmark was
written on.  Five probes damp the noise of a single 2 ms sample and still
follow the drift.  On that host, the times of one input measured in
different runs deviated from their median by 11-16% unscaled (mean
absolute log deviation, per workload) and by 8-11% scaled this way, less
than with one probe on each side or with wider windows.  Raw wall-clock
figures are printed alongside.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

PROBE_MS = 2.0
BEFORE, AFTER = 2, 3  # probes on each side of an op that set its scale

_STATES, _RADIX = 3000, 3


class Probe:
    def __init__(self):
        rng = random.Random("perfbench-probe")
        self.table = [[rng.randrange(_STATES) for _ in range(_RADIX)] for _ in range(_STATES)]
        self.times: list[float] = []  # start of each probe
        self.seconds: list[float] = []
        self._search()  # first call is cold; not recorded

    def _search(self) -> int:
        parent = {0: None}
        queue = [0]
        i = 0
        while i < len(queue):
            state = queue[i]
            i += 1
            for nxt in self.table[state]:
                if nxt not in parent:
                    parent[nxt] = state
                    queue.append(nxt)
        return len(parent)

    def sample(self) -> None:
        """Run the probe once and record its time.  The collector is off so
        that garbage left by the program does not count as host speed."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._search()
            self.times.append(start)
            self.seconds.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def median_ms(self) -> float:
        return statistics.median(self.seconds) * 1000

    def scale(self, at: float) -> float:
        """Factor that turns a time measured from `at` into reference time:
        PROBE_MS over the median of the BEFORE probes started last before
        `at` and the AFTER probes started first after it (as many of them
        as exist)."""
        after = bisect.bisect_right(self.times, at)
        near = self.seconds[max(after - BEFORE, 0):after + AFTER]
        return PROBE_MS / (statistics.median(near) * 1000)
