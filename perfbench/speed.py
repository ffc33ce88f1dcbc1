"""Wall time rescaled to a fixed machine speed.

The benchmark runs on a shared host whose speed changes by up to 3x within
seconds, as co-tenants load the core.  A run's raw wall time follows that
load more than it follows the program.  ``Ticker`` samples the current speed
while the program runs: a timer signal every ``INTERVAL_S`` runs
``reference()``, a fixed pure-Python kernel in this file, and records how
long it took.  A timed call's wall time, less the ticks inside it, is then
multiplied by ``REFERENCE_S`` over the reference time measured around it:
the call's time on a machine where ``reference()`` takes ``REFERENCE_S``.

The kernel lives here, not in chainplan, so that no change to the program
moves it.  It is the same kind of work as the planner's hot path (float
polynomial steps over small tuples, in pure Python), so contention slows it
by about the same factor: on the shared 2-core x86-64 machine where the
baseline was taken, 40 order-3 plans planned 259 times in a row spread by
10.4 % between passes in wall time (quartile distance over median) and by
1.6 % once rescaled.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.025
STEPS = 150
# about reference()'s fastest time on that machine (Python 3.11)
REFERENCE_S = 2.7e-4
# ticks this far either side of a short call also describe its speed
NEAR_S = 0.1

clock = time.perf_counter


def _step(x, u, t):
    n = len(x)
    out = []
    for i in range(n):
        acc = 0.0
        term = 1.0
        for j in range(i, n):
            acc += x[j] * term
            term *= t / (j - i + 1)
        out.append(acc + u * term)
    return tuple(out)


def reference():
    """Fixed work: STEPS bang-bang steps of a four-state integrator chain."""
    x = (0.1, -0.2, 0.3, 0.05)
    for k in range(STEPS):
        x = _step(x, 1.0 if k % 2 else -1.0, 0.01)
    return x


class Ticker:
    """Samples ``reference()`` on a timer while active (a context manager).

    ``ticks`` holds (start, end) of every sample, one of them taken on entry
    and one on exit; ``scaled()`` turns the wall interval of one call made
    inside the context into reference-speed seconds."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.ticks: list[tuple[float, float]] = []
        self._saved = None

    def _tick(self, signum, frame):
        t0 = clock()
        reference()
        self.ticks.append((t0, clock()))

    def __enter__(self):
        self._tick(None, None)
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self._tick(None, None)
        return False

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, scaled) seconds of the call that ran from t0 to t1.

        wall excludes the ticks that interrupted the call.  The speed is the
        mean reference rate over the ticks inside the call and those within
        NEAR_S of it, so that a call shorter than a tick still has some,
        less the fastest and the slowest tenth of them: a tick that was
        itself descheduled says little about the call."""
        starts = [s for s, _ in self.ticks]
        lo = bisect.bisect_left(starts, t0 - NEAR_S)
        first = bisect.bisect_left(starts, t0)
        last = bisect.bisect_right(starts, t1)
        hi = bisect.bisect_right(starts, t1 + NEAR_S)
        inside = sum(e - s for s, e in self.ticks[first:last])
        wall = t1 - t0 - inside
        # without a tick that close, the nearest one on either side
        near = self.ticks[lo:hi] or self.ticks[max(0, first - 1):first + 1]
        rates = sorted(1.0 / (e - s) for s, e in near)
        cut = len(rates) // 10
        rate = statistics.fmean(rates[cut:len(rates) - cut])
        return wall, wall * rate * REFERENCE_S
