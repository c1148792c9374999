"""Machine-speed probe: rescales measured times to a nominal machine speed.

On a shared machine the same pass can take half as long again ten minutes
later, because other tenants slow the CPU down, and CPU time slows with it.
While the workload runs, a SIGALRM handler times a fixed probe every
``INTERVAL`` seconds: a product of two polynomials held as dicts of Fraction
coefficients, the package's kind of work but none of its code.  An
operation's time, less the probe time spent inside it, is multiplied by
``NOMINAL_S`` over the mean probe time of its pass.  A change to the package
does not change the probe, so it moves rescaled times as it moves raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Probe seconds on the baseline machine (Intel Xeon, Python 3.11.7) when
# quiet; rescaled times read as seconds of that machine.
NOMINAL_S = 0.003
INTERVAL = 0.2


def _poly_mul(f, g):
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


_F = {(i, j): Fraction(i - j, i + j + 1) for i in range(6) for j in range(6)}
_G = {(i, j): Fraction(i + 2 * j + 1, j + 2) for i in range(5) for j in range(5)}


def work():
    """Bivariate polynomial product with Fraction coefficients in dicts."""
    return _poly_mul(_F, _G)


def timed_work():
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples probe times every INTERVAL seconds while active."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.starts = []     # sample start times, increasing
        self.durations = []  # wall seconds of each sample
        self.cpu = []        # cpu seconds of each sample
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0, c0 = time.perf_counter(), time.process_time()
        work()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start, end):
        """NOMINAL_S over the mean probe time of the samples in [start, end]
        (of all samples if none fell there)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi] or self.durations
        return NOMINAL_S / statistics.fmean(inside) if inside else 1.0

    def spent(self, start, end):
        """(wall, cpu) seconds the probe took inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.durations[lo:hi]), sum(self.cpu[lo:hi])
