"""Machine-speed probe, used to put operation times on a common scale.

The virtual machines the benchmark runs on change speed by up to a factor of
two for seconds to minutes at a time, whatever runs on them, and a run lasts
about as long as one such phase, so raw times of the same code spread past any
useful bound.  The runner therefore times, every PROBE_GAP_S of wall time, a
fixed kernel that does not touch lpcube, and scales each operation's time by
how much slower or faster than REFERENCE_PROBE_S the kernel ran during and
around it.  The kernel runs from a timer signal, so long operations get
probed while they run; its time is taken out of the operation's.  A change to
lpcube moves the scaled times as it moves the raw ones; a slow spell of the
machine slows the kernel too and cancels out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# A round figure for the kernel's time on the machine the bounds were set on,
# between its fast (about 1.05 ms) and slow (about 2.0 ms) phases.
REFERENCE_PROBE_S = 1.6e-3
PROBE_GAP_S = 0.05      # wall time between two runs of the kernel
WINDOW_S = 0.1          # runs this close to an op's interval set its speed ...
MIN_PROBES = 3          # ... or the nearest this many, if fewer are that close


def _kernel(vec) -> float:
    """An interpreter-bound loop, then small-array numpy calls."""
    table: dict[int, int] = {}
    acc = 0.0
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
        acc += (i * 0.5) ** 0.5
    for i in range(300):
        acc += float((vec * i).sum())
    return acc


class Probes:
    """Timed runs of the kernel, in the order they were taken."""

    def __init__(self):
        import numpy    # here, so that importing this module leaves set-up time alone

        self._vec = numpy.arange(16.0)
        self.at: list[float] = []       # midpoint of each run, perf_counter seconds
        self.took: list[float] = []
        self._previous = None

    def take(self, *_signal_args) -> None:
        start = time.perf_counter()
        _kernel(self._vec)
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)

    def __enter__(self) -> "Probes":
        """Run the kernel every PROBE_GAP_S until the block ends."""
        self._previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)
        self.take()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.take()

    def local(self, start: float, end: float) -> float:
        """Median kernel time around the interval [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < MIN_PROBES:
            mid = (start + end) / 2
            nearest = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - mid))
            return statistics.median(self.took[i] for i in nearest[:MIN_PROBES])
        return statistics.median(self.took[lo:hi])

    def inside(self, start: float, end: float) -> float:
        """Seconds of probing inside the interval [start, end]."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        return sum(self.took[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The interval's length, less the probing inside it, at the
        reference speed."""
        return (end - start - self.inside(start, end)) * REFERENCE_PROBE_S / self.local(start, end)
