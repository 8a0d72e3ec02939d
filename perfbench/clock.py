"""Clocks for the benchmark's timings.

The machine the benchmark was written on (2 vCPUs shared with other
tenants) runs this process up to 2x slower in phases that last from
seconds to minutes, whatever the process does: five runs of
registry-standard, each the median of its cold passes, read from 2.11 to
2.71 s, a spread of 0.195 against a bound of 0.25 (see NOTES.md).
``SpeedClock`` measures that speed while the work runs: a SIGALRM every
``INTERVAL_S`` runs a fixed reference loop and records how long it took.  Times are then scaled to the speed at which the loop takes
``REFERENCE_S``, so that phases of the machine largely cancel out and
changes to the program do not (the loop uses no qsymx code).  The time
spent in the loop itself is taken out of every interval the clock
measures.
"""

import itertools
import resource
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
MIN_SAMPLES = 10

# About the duration of the reference loop between the work of a pass on
# the machine the benchmark was written on (Python 3.11.7, 2 vCPUs), so that
# scaled pass times read close to raw seconds there.  Changing it changes
# every scaled time.
REFERENCE_S = 180e-6


def reference_loop():
    """A fixed mix of the work qsymx does in the interpreter (small Fraction
    arithmetic, tuple slicing, dict updates) and in C (permutations,
    sorting, big-integer products, building a dict)."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 25):
        acc += Fraction(i, i % 5 + 1)
        key = (i, i & 3, i % 7)[1:]
        table[key] = table.get(key, 0) + i
    ascents = 0
    for p in itertools.islice(itertools.permutations(range(7)), 60):
        ascents += p[0] < p[1]
    ordered = sorted(range(300, 0, -1))
    base = 3
    big = base**300 * (base + 4) ** 200
    squares = {i: i * i for i in range(100)}
    return acc, ascents, ordered[0], big & 1, len(squares)


class Clock:
    """Wall seconds, and CPU seconds of this process and its children,
    less the time this clock spent sampling."""

    def __init__(self):
        self.excluded = 0.0

    def now(self):
        own = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
        return time.perf_counter() - self.excluded, cpu - self.excluded

    def since(self, start):
        """(wall, CPU) seconds elapsed since a ``now()`` reading."""
        wall, cpu = self.now()
        return wall - start[0], cpu - start[1]


class SpeedClock(Clock):
    """A Clock that also samples the machine's speed while it runs (between
    ``start()`` and ``stop()``); ``speed(first)`` is the mean of the samples
    taken since ``len(speeds)`` was ``first``."""

    def __init__(self):
        super().__init__()
        self.speeds = []  # REFERENCE_S / duration of each sample
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - t0
        self.speeds.append(REFERENCE_S / elapsed)
        self.excluded += elapsed

    def sample_now(self, count: int):
        """Take `count` samples synchronously."""
        for _ in range(count):
            self._sample(None, None)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, first: int) -> float:
        """Mean speed over the samples from index `first` on; if there are
        fewer than ``MIN_SAMPLES``, the missing ones are taken now."""
        missing = MIN_SAMPLES - (len(self.speeds) - first)
        if missing > 0:
            self.sample_now(missing)
        return statistics.fmean(self.speeds[first:])
