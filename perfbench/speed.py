"""Host-speed probe: rescales measured times to a fixed host speed.

The benchmark runs on shared virtual machines whose speed drifts by 20%
and more between minutes, for every process alike (a fixed Python loop
slows with the program).  ``SpeedProbe`` times a fixed pure-Python loop,
``probe_work``, every ``INTERVAL_S`` of wall time from a ``SIGALRM``
handler, so probes fall inside long operations as well as between
operations.  An operation's time is its wall time minus the probes run
during it, rescaled by ``REFERENCE_S`` over the mean probe time around
it: the time the operation would take on a host where the probe takes
``REFERENCE_S``.  A change to the program changes these times as it
changes wall times; a change in the host's speed cancels out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05
REFERENCE_S = 0.001   # a probe takes 0.85-1.2 ms on the reference machine


def probe_work() -> int:
    total, table = 0, {}
    for i in range(6000):
        table[i & 1023] = total
        total += i * 3 % 7
    return total


class SpeedProbe:
    """Probes the host's speed while the ``with`` block runs.

    There is a probe on entry and on exit, so every interval timed inside
    the block has a probe before and after it.
    """

    def __enter__(self):
        self.starts, self.durations = [], []
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def _probe(self, *_signal):
        if self._busy:      # a tick that arrives during a probe is dropped
            return
        self._busy = True
        start = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def wall_seconds(self, start: float, end: float) -> float:
        """Wall time of ``[start, end]`` without the probes run in it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        return end - start - sum(self.durations[first:last])

    def reference_seconds(self, start: float, end: float) -> float:
        """``wall_seconds`` at the reference speed: scaled by the mean of
        the probes in the interval and the nearest one on either side."""
        first = max(bisect.bisect_left(self.starts, start) - 1, 0)
        last = bisect.bisect_right(self.starts, end) + 1
        speed = statistics.fmean(self.durations[first:last])
        return self.wall_seconds(start, end) * REFERENCE_S / speed

    def median_ms(self) -> float:
        return statistics.median(self.durations) * 1000
