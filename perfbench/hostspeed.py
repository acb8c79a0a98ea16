"""Host-speed scaling of the benchmark's times.

The benchmark runs on a slice of a shared machine whose speed swings with
what other tenants run.  On the 2-core x86-64 machine it was written on, a
fixed pure-Python loop sped up by a factor of 1.6 over two minutes, and
exact tables timed in the same stretch sped up with it.  Over 12-s windows
the table times spread by 0.29 (interquartile range over median), their
ratio to the loop's time by 0.07.  Raw wall times swing by more than the
bounds in BENCHMARK.json, so the benchmark runs a fixed reference loop on
the CPU that runs its work, between ops and around each set-up probe, and
reports every duration scaled to a host on which that loop takes NOMINAL_S:

    reported = measured * NOMINAL_S / (reference time around that moment)

The report prints the measured figures and the reference times beside the
scaled ones.  The reference is one thread of Python, so it tracks set-up
and workloads whose ops run on one core.  mc-root-law spreads numpy work
over every core, and its op times are reported as measured (WallClock).
Starting a process tracks the reference less closely than computing in
one: on cli-cold, scaling took the spread of op times between runs from
0.06-0.18 down to 0.01-0.13.  A bare interpreter start as the reference
(``python -S -c pass``) did no better there.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

NOMINAL_S = 1.5e-3
INTERVAL_S = 0.05  # at most one reference sample per this much loop time
NEAREST = 7  # the scale at a moment is the median of this many samples nearest to it


def reference_work():
    """Fixed interpreter work: int and float arithmetic, a dict, a list and a bigint."""
    acc, x, table, items = 0, 0.5, {}, []
    big = 3**200
    for i in range(3600):
        acc += (i * i) % 7
        x = x * 0.999 + 1.0 / (i + 1)
        table[i & 63] = table.get(i & 63, 0) + i
        items.append(i ^ acc)
        if i % 20 == 0:
            big = (big * 12345 + i) % (1 << 600)
    items.sort()
    return acc + int(x) + len(table) + items[-1] + big % 7


class HostClock:
    """Reference samples over a run, and the scale they give each moment."""

    def __init__(self):
        self.times, self.seconds = [], []
        self.last = float("-inf")

    def sample(self):
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.seconds.append(t1 - t0)
        self.last = t1

    def tick(self):
        """A sample, when INTERVAL_S has passed since the last one."""
        if perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def surround(self):
        """Enough samples that the moments on either side of now have their NEAREST."""
        for _ in range(NEAREST):
            self.sample()

    def scale(self, t):
        """NOMINAL_S over the median reference time of the samples nearest to moment t."""
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return NOMINAL_S / statistics.median(self.seconds[lo:lo + NEAREST])

    def describe(self):
        quartiles = " ".join(f"{q * 1e3:.4f}" for q in statistics.quantiles(self.seconds, n=4))
        return (f"host reference: {len(self.seconds)} samples, quartiles {quartiles} ms, "
                f"scaled to {NOMINAL_S * 1e3:g} ms")


class WallClock(HostClock):
    """HostClock's interface with every scale 1: times as measured."""

    def sample(self):
        pass

    def scale(self, t):
        return 1.0
