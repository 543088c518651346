"""Time at the host's nominal speed.

The benchmark runs on a host shared with other tenants, whose speed
drifts by up to 2x over seconds and minutes (``BASELINE.md``). A time
taken on it carries that drift. While a ``HostClock`` runs, a timer
signal interrupts the program every ``INTERVAL`` seconds and times a
fixed piece of pure-Python work (``probe``): how fast the host runs this
interpreter at that moment. The probe is the benchmark's own code, and
the program cannot change its speed: it allocates nothing the garbage
collector tracks, shares no state with the program and lasts less than
the interpreter's thread switch interval.

``nominal(start, end)`` is the time between two ``time.perf_counter``
readings, less the probes taken in between, scaled by the nominal probe
time over the median of the probes taken during that interval and up to
``WINDOW`` seconds around it. On a host of steady speed it is the wall
time times a constant.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.05
PROBE_STEPS = 8000
NOMINAL_PROBE_S = 1.5e-3  # the probe's median on the machine described in BASELINE.md
WINDOW = 0.5
MIN_PROBES = 5


def _mix(a: int, b: int) -> int:
    if b & 1:
        return (a * 31 + b) & 0xFFFF
    return (a ^ b) + 7


def probe() -> float:
    """Seconds taken by a fixed run of calls, branches and small-int arithmetic."""
    start = time.perf_counter()
    s = 0
    for i in range(PROBE_STEPS):
        s = _mix(s, i)
    return time.perf_counter() - start


class HostClock:
    """Probe times, sampled on a timer between ``__enter__`` and ``__exit__``."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._sampling = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._sampling:  # a probe delayed past the next tick
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            self.durations.append(probe())
            self.starts.append(start)
        finally:
            self._sampling = False

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.durations) < MIN_PROBES:
            self._sample()

    def _span(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)

    def probed(self, start: float, end: float) -> float:
        """Seconds spent in probes between two readings."""
        lo, hi = self._span(start, end)
        return sum(self.durations[lo:hi])

    def probe_time(self, start: float, end: float) -> float:
        """Median probe time during [start, end] and WINDOW around it,
        the window widened until it holds MIN_PROBES probes."""
        window = WINDOW
        while True:
            lo, hi = self._span(start - window, end + window)
            if hi - lo >= MIN_PROBES or hi - lo == len(self.starts):
                return statistics.median(self.durations[lo:hi])
            window *= 2

    def nominal(self, start: float, end: float) -> float:
        net = end - start - self.probed(start, end)
        return net * NOMINAL_PROBE_S / self.probe_time(start, end)
