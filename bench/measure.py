"""Reference kernel, speed scaling and the summary statistics.

The interpreter's speed on a shared host drifts by tens of percent within
seconds, so a raw operation time says as much about the host as about the
program.  The benchmark therefore times a fixed pure-Python kernel of its own
at short intervals through every run, and multiplies each measured time by
``NOMINAL_KERNEL_S / kernel time measured around it``.  Scaled times keep
their units (s, ms); they read what the operation would have taken on a host
where the kernel takes exactly ``NOMINAL_KERNEL_S``.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# Median kernel time of the reference host (2-core VM, Python 3.11.7).  A
# constant: changing it rescales every reported time.
NOMINAL_KERNEL_S = 0.0015

# A kernel sample is the median of this many back-to-back kernel timings.
KERNEL_REPEATS = 3

# Minimum busy time between two kernel samples during a timed loop.
KERNEL_INTERVAL_S = 0.1

# Percentiles the tail metric may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Samples the tail percentile must leave beyond it.
TAIL_MIN_BEYOND = 10


def _kernel_once() -> None:
    """Dense polynomial products over Q reduced modulo a fixed polynomial:
    Fraction arithmetic, list indexing and small-object churn, the same mix
    of interpreter work as exact tower arithmetic.  Never valext code."""
    a = [Fraction(i + 1, i + 2) for i in range(7)]
    b = [Fraction(2 * i - 3, i + 1) for i in range(7)]
    mod = [Fraction(1), Fraction(-2, 3), Fraction(0), Fraction(5, 7), Fraction(1, 2), Fraction(1)]
    for _ in range(3):
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        # remainder modulo the monic degree-5 polynomial
        for k in range(len(prod) - 1, len(mod) - 2, -1):
            c = prod[k]
            if c:
                for j, m in enumerate(mod):
                    prod[k - len(mod) + 1 + j] -= c * m
        a = prod[: len(mod) - 1] + [Fraction(1), Fraction(1, 3)]


def kernel_sample() -> float:
    """Seconds for one kernel run: the median of KERNEL_REPEATS timings."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        _kernel_once()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale_factor(before: float, after: float) -> float:
    """Multiplier that turns a time measured between two kernel samples into
    nominal-kernel units."""
    return NOMINAL_KERNEL_S / math.sqrt(before * after)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile that leaves at least TAIL_MIN_BEYOND of
    n samples beyond it (nearest-rank definition); the median below that."""
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: a sample, never an interpolation."""
    ordered = sorted(values)
    k = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[k - 1]
