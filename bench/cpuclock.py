"""Times scaled to a reference CPU speed.

The CPU of a shared machine does not run at one speed: on the 2-vCPU Xeon
the reference figures come from, the same pure-Python work takes 1.5 to 2.5
times longer for stretches of milliseconds to minutes, as other tenants
load the host.  A run that falls in a slow stretch would read as a
regression.  So while an operation runs, a SIGALRM handler times a short
fixed calibration loop every PERIOD_S seconds, and the operation's time is
scaled by the mean speed those samples saw:

    scaled = (measured - time spent sampling) * mean(REFERENCE_S / loop time)

The mean of speeds (not of loop times) weighs each sample by the stretch
of wall time it stands for.  The loop is plain CPython on small frozensets
and dicts, the kind of work the library's inner loops do, runs with the
garbage collector off, and uses no plantopo code: a change to the library
does not move it.  On a steady machine where the loop takes REFERENCE_S,
scaled and measured times are the same.
"""

from __future__ import annotations

import atexit
import gc
import signal
import statistics
import time

# the calibration loop's time on the reference machine in a fast stretch
REFERENCE_S = 0.25e-3
PERIOD_S = 0.02

_SETS = [frozenset(range(i, i + 12)) for i in range(64)]


def _loop():
    counts = {}
    for _ in range(5):
        for i, s in enumerate(_SETS):
            t = (s | _SETS[i - 1]) - _SETS[i - 2]
            counts[t] = counts.get(t, 0) + len(t)
            if s <= t:
                counts[i] = min(t)
    return counts


class Clock:
    """Samples the CPU speed every ``period`` seconds until ``stop``."""

    def __init__(self, period=PERIOD_S):
        self.speeds = []      # REFERENCE_S / loop time, one per sample
        self._busy = False    # a signal during an explicit sample is skipped
        t = time.perf_counter()
        for _ in range(3):    # past the interpreter's warm-up of new code
            _loop()
        self.spent = time.perf_counter() - t   # seconds spent sampling
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        # a timer left running past the handler's removal at interpreter
        # exit would kill the process with SIGALRM
        atexit.register(self.stop)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def sample(self, *_):
        """Time the calibration loop once."""
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        _loop()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.speeds.append(REFERENCE_S / (t1 - t0))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def mark(self):
        """Take a sample and start a measurement; pass the result to
        ``elapsed``."""
        self.sample()
        return len(self.speeds) - 1, self.spent, time.perf_counter()

    def elapsed(self, mark):
        """Seconds of wall time since ``mark``, less the time spent
        sampling, at the reference speed.  Takes a closing sample."""
        measured = time.perf_counter() - mark[2] - (self.spent - mark[1])
        self.sample()
        return measured * statistics.fmean(self.speeds[mark[0]:])
