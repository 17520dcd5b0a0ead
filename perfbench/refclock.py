"""Times rescaled to a fixed reference speed of the host.

On a shared host the speed of one core drifts by up to a factor of two
within a minute as other tenants' load comes and goes.  Measured on a 2-vCPU
Xeon guest, pure-Python loops, dict updates, big-integer products and
Fraction arithmetic slow down and speed up together, so raw wall times of
the same code spread far more than any useful bound while their ratio to a
fixed kernel stays within a few percent.

While a `ReferenceClock` is active, a SIGALRM handler in the same thread
times a fixed calibration kernel every `period` seconds of wall time (a tick
waits for a running C call to return).  The kernel's time divided by
REFERENCE_KERNEL_S is the host's slowness at that moment.  `seconds(start,
end)` takes the wall time of an interval, removes the kernel runs inside it
and divides by the mean slowness seen from one period before to one period
after it: the interval's time at reference speed.  The kernel calls no
bunkbed code, so a program that does less work gets a smaller value, while
the host's load alone moves it little.  A change of interpreter or machine
moves the kernel too, so compare values from one interpreter and machine.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# Time of one kernel run at reference speed, on a 2 GHz Xeon vCPU when its
# host is quiet.  It only sets the scale of every reported time.
REFERENCE_KERNEL_S = 0.00035
PERIOD_S = 0.015

_A = 3**1500
_B = 7**1500
_FRACTIONS = tuple(Fraction(i, 7 * i + 1) for i in range(1, 9))


def kernel() -> int:
    """Fixed work mixing the interpreter loop, a dict, big integers and Fractions.

    The program's hot paths are these kinds of work, and Fraction arithmetic
    tracks its slowdowns best.
    """
    counts: dict = {}
    for i in range(120):
        counts[i & 15] = counts.get(i & 15, 0) + i
    x = 0
    for _ in range(8):
        x ^= _A * _B
    acc = Fraction(1)
    for a in _FRACTIONS:
        for b in _FRACTIONS:
            acc = acc * a + b
    return (x & 1) + len(counts) + acc.denominator % 2


class ReferenceClock:
    """Calibration ticks on SIGALRM while active; use as a context manager."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list = []
        self.slowness: list = []
        self.busy: list = []  # cumulative kernel time at the end of each tick
        self._saved = None

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.starts.append(start)
        self.slowness.append(took / REFERENCE_KERNEL_S)
        self.busy.append((self.busy[-1] if self.busy else 0.0) + took)

    def seconds(self, start: float, end: float) -> float:
        """Wall time of [start, end] without the ticks, at reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        ticks = self.busy[hi - 1] - (self.busy[lo - 1] if lo else 0.0) if hi > lo else 0.0
        near_lo = bisect.bisect_left(self.starts, start - self.period)
        near_hi = max(bisect.bisect_right(self.starts, end + self.period), near_lo + 1)
        near = self.slowness[near_lo:near_hi] or self.slowness[-1:]
        speed = sum(1.0 / s for s in near) / len(near)
        return (end - start - ticks) * speed

    def time(self, fn):
        """Run fn(); return (its result, raw wall seconds, reference seconds)."""
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
        return out, end - start, self.seconds(start, end)
