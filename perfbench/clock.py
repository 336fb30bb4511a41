"""A calibrated clock: time in units of a fixed pure-Python reference loop.

On a shared virtual machine the CPU speed can swing by up to 2x within
seconds, so raw wall time of identical work is not steady.  The clock runs
a short reference loop (int, Fraction and dict work, no torusdyn code) every
INTERVAL_S from a SIGALRM timer, also in the middle of a long operation,
with the garbage collector paused.  Time between two reference runs is
divided by the duration of the latest reference, which makes it a count of
reference units; the reference runs themselves are left out.  Multiplying
by NOMINAL_REF_S turns units into calibrated seconds.

The latest reference alone tracks the speed better than a median of
several: the speed moves within a fraction of a second.

The clock is piecewise linear in perf_counter between reference runs, so
``now()`` is monotonic and cheap enough to read at every traced call.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

# Median duration of one reference() call on a 2-vCPU x86-64 VM with
# CPython 3.11; only a scale factor from reference units to seconds.
NOMINAL_REF_S = 0.0025
# Every 0.05 s tracked the speed swings better than every 0.1 s
# (2-second-window medians of a fixed load within 5% against 6-10%).
INTERVAL_S = 0.05


def reference() -> int:
    """Fixed interpreter work, shaped like torusdyn's inner loops."""
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 600):
        acc += Fraction(i, i + 2)
        table[i % 11] = table.get(i % 11, 0) + i * i
    return acc.numerator % 7 + len(table)


class CalibratedClock:
    """Reference-unit clock.  Use as a context manager; ``now()`` reads calibrated seconds."""

    def __init__(self, ref=reference, interval: float = INTERVAL_S, nominal: float = NOMINAL_REF_S):
        self._ref = ref
        self._interval = interval
        self._nominal = nominal
        self._units = 0.0  # reference units accumulated up to self._mark
        self._mark = 0.0  # perf_counter when the last reference ended
        self._per_unit = 1.0  # current reference duration, seconds
        self._busy = False
        self._old_handler = None
        self.ref_runs = 0
        self.ref_seconds = 0.0  # raw time spent inside the reference

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> CalibratedClock:
        self._run_reference()  # warm the reference's own code path
        self._per_unit = self._run_reference()
        self._mark = time.perf_counter()
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    # -- reading -------------------------------------------------------------------

    def now(self) -> float:
        """Calibrated seconds since the clock started."""
        return (self._units + (time.perf_counter() - self._mark) / self._per_unit) * self._nominal

    # -- reference --------------------------------------------------------------------

    def _run_reference(self) -> float:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._ref()
            dt = time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()
        self.ref_runs += 1
        self.ref_seconds += dt
        return dt

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self._units += (start - self._mark) / self._per_unit
            self._per_unit = self._run_reference()
            self._mark = time.perf_counter()
        finally:
            self._busy = False

    @contextmanager
    def paused(self):
        """Stop the clock, e.g. while a child process runs and times itself.

        Time while paused is not counted, like the reference's own time.
        """
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._units += (time.perf_counter() - self._mark) / self._per_unit
        try:
            yield
        finally:
            self._per_unit = self._run_reference()
            self._mark = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
