"""Speed calibration against a fixed reference kernel.

The machines this benchmark runs on change speed by up to 2x from one
tenth of a second to the next (other tenants share the cores), which no
amount of repetition within one run averages away.  So a timer interrupts the run
every CALIBRATE_EVERY seconds to time a fixed pure-Python kernel, and every
time the benchmark reports is scaled by NOMINAL / (median kernel time
around the measurement): seconds on a machine where the kernel takes exactly
NOMINAL.  A change to langcc cannot change the kernel, so the scaling
cancels the machine's drift and leaves the program's.  Kernel time inside a
measurement is taken out of it.  The kernel (see its docstring) slows down
about as much as the measured code when the machine does; a purely
arithmetic kernel tracked the drift much worse.

Raw (unscaled) figures stay in the printed table and the trace file.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from typing import List

NOMINAL = 0.0014         # seconds the kernel is scaled to
CALIBRATE_EVERY = 0.025  # seconds between kernel runs
WINDOW = 0.1             # kernel runs this close to a measurement count for it

clock = time.perf_counter


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel(n: int = 700) -> int:
    """Object and string churn like the parser's, then set and frozenset
    hashing like LR construction's: the two halves slow down by different
    amounts when the machine does, and together sit among the code measured."""
    out = []
    seen = {}
    for i in range(n):
        t = (i, "k%d" % (i % 101))
        seen[t[1]] = seen.get(t[1], 0) + 1
        out.append(_Obj(i, t))
    s = 0
    for o in out:
        s += o.a + len(o.b[1]) + seen[o.b[1]]
    items = set()
    table = {}
    for i in range(n):
        k = frozenset(((i % 53, i % 7), (i % 11, 3)))
        items.add(k)
        table[(i % 97, k)] = i
    for (_a, k), v in table.items():
        if k in items:
            s += v
    return s


class Calibrator:
    """Times the kernel from a SIGALRM timer between start() and stop().

    The handler runs between two bytecodes of whatever is executing; it
    touches only this object (and `on_kernel`, which the tracer uses to
    record the kernel as a child span of the interrupted one)."""

    def __init__(self):
        self.times: List[float] = []   # midpoints, increasing
        self.kernel_s: List[float] = []
        self.spent = 0.0                # total seconds spent in the kernel
        self.on_kernel = None
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY, CALIBRATE_EVERY)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _alarm(self, _signum, _frame):
        self.measure()

    def measure(self):
        if self._busy:
            return
        self._busy = True
        # the collector would make the kernel's time depend on the heap the
        # workload has built up
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            kernel()
            t1 = clock()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.times.append((t0 + t1) / 2)
        self.kernel_s.append(t1 - t0)
        self.spent += t1 - t0
        if self.on_kernel is not None:
            self.on_kernel(t0, t1)

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL over the median kernel time within WINDOW of [t0, t1]
        (the nearest two kernel runs if none is that close).  The median,
        because a kernel run the scheduler preempts reads many times slower."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW)
        hi = bisect.bisect_right(self.times, t1 + WINDOW)
        if hi - lo < 1:
            at = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo, hi = max(at - 1, 0), min(at + 1, len(self.times))
        return NOMINAL / statistics.median(self.kernel_s[lo:hi])
