"""Machine speed from a fixed pure-Python loop, so that times read at a reference speed.

On a shared machine (2 vCPUs, other tenants on the same cores) the wall
time of one pathalg job moved by up to 70% within a minute, while the same
job's time divided by the time of this loop, taken right beside it, stayed
within 1-3%.  The benchmark therefore reports every time in reference
seconds: measured seconds divided by `slowdown()`, the loop's time over
REFERENCE_S.  The loop uses no pathalg code, so no change to the program
moves it.
"""
from __future__ import annotations

import bisect
import signal
from time import perf_counter

# The loop's time at reference speed; roughly its time on an idle core of the
# machine the benchmark was written on, so reference seconds read close to
# wall seconds there.
REFERENCE_S = 0.0026


class _Item:
    __slots__ = ("key", "hash")

    def __init__(self, key):
        self.key = key
        self.hash = hash(key)

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        return self.key == other.key


def _loop():
    # Small slotted objects with a cached hash, counted in a dict, sorted by a
    # key function and looked up again: the shape of pathalg's inner loops.
    # Of the loops tried, this one tracked the speed of a completion job best.
    items = [_Item((i % 97, i % 89, i)) for i in range(3000)]
    counts: dict = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    ordered = sorted(items, key=lambda item: (item.key[1], -item.key[0]))
    return sum(counts[item] for item in ordered[::3])


def slowdown() -> float:
    """The loop's time now, as a multiple of REFERENCE_S (2.0 means half speed)."""
    t0 = perf_counter()
    _loop()
    return (perf_counter() - t0) / REFERENCE_S


class Sampler:
    """Samples slowdown() every `every` seconds from a SIGALRM handler, jobs running or not.

    A job of a few seconds can span a change of speed, so a sample on either
    side of it is not enough; the samples taken while it ran are averaged in.
    Time spent in the handler is kept in `spent`, for callers to subtract.
    """

    def __init__(self, every: float = 0.1):
        self.every = every
        self.times: list[float] = []
        self.values: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        value = slowdown()
        self.times.append(t0)
        self.values.append(value)
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_slowdown(self, start: float, end: float) -> float:
        """Mean of the samples taken in [start, end] and of the nearest one on either side."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        window = self.values[lo:hi]
        return sum(window) / len(window)
