"""Machine-speed gauge: converts measured seconds into reference seconds.

The benchmark shares a small machine with other tenants, and its speed
switches within seconds between a fast state and one 1.4-1.6 times slower.
Timed alone, the same op reads 0.18 s or 0.30 s depending on that state.
The gauge times a fixed piece of pure-Python work that uses no ``ccyclic``
code after every measured interval, and scales the interval by
``REFERENCE_S`` over the mean of the gauge samples taken just before and
just after it.  The result is the interval's length at the machine speed
at which the reference work takes ``REFERENCE_S``, the fast state of the
2-core machine the benchmark was written on.

The reference work is chosen to slow down like the program does: many
short tuples sorted and prefix-summed, small dicts, exact ``Fraction``
arithmetic and one longer list.  A tight integer loop was tried first and
tracked the slow state 7-16% too loosely, this mix within 0-7%.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import accumulate

#: seconds one gauge sample takes between ops in the fast state of the calibration machine
REFERENCE_S = 0.0080
#: timings of the reference work per gauge sample
SAMPLE_RUNS = 2


def reference_work() -> int:
    """Fixed work, the same on every call; its result is returned so it is not optimised away."""
    kept = 0
    for a in range(1, 900):
        row = tuple(sorted(((a * j) % 13 for j in range(12)), reverse=True))
        prefix = list(accumulate(row))
        if prefix[-1] % 2 == 0 and all(x <= y + 12 for x, y in zip(prefix, prefix[1:])):
            kept += 1
        counts = {}
        for x in row:
            counts[x] = counts.get(x, 0) + 1
        kept += len(counts)
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(i % 7 + 1, i + 3) * Fraction(2, 3)
    long = list(range(6000))
    long.reverse()
    long.sort()
    return kept + total.numerator % 7 + sum(x * x for x in long) % 7


class Gauge:
    """Samples the machine's speed between measured intervals."""

    def __init__(self):
        self.samples = []  # seconds of each reference_work call
        self._last = self._sample()

    def _sample(self) -> float:
        """The faster of two timings: a pause inside one (a collection, a preemption) is not speed."""
        times = []
        for _ in range(SAMPLE_RUNS):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
        self.samples.append(min(times))
        return min(times)

    def scale(self, seconds: float) -> float:
        """Reference seconds of an interval that ended just now; takes the next sample."""
        before, self._last = self._last, self._sample()
        return seconds * REFERENCE_S / ((before + self._last) / 2)
