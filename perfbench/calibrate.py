"""A fixed unit of CPU work that measures how fast the host runs right now.

On a shared host the same op can take 1.7x longer for tens of seconds at a
time, and the process's own CPU time slows down just as much as its wall
time, so neither clock alone gives steady figures.  A fixed workload that
touches none of the library slows down with the host but never with the
program.  The benchmark runs it between ops and reports every time at
*reference speed*: a measured time multiplied by ``REFERENCE_S`` over the
calibration time measured next to it.  A change to the program moves those
times as it moves the wall clock; a change of host speed does not.

The unit mixes the two kinds of work the workloads do: interpreted Python
over small objects (heap and dict traffic) and NumPy passes over arrays too
large for the cache.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

import numpy as np

#: Seconds the calibration unit takes at reference speed, about what it
#: takes on a quiet 2-core host.
REFERENCE_S = 0.010

_ARRAY = np.random.default_rng(20060425).random(200_000)


def _python_part() -> float:
    rng = random.Random(5)
    heap: list[tuple[float, int]] = []
    buckets: dict[int, float] = {}
    for i in range(5000):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        buckets[i % 97] = buckets.get(i % 97, 0.0) + x
    while heap:
        heapq.heappop(heap)
    return sum(buckets.values())


def _numpy_part() -> float:
    total = 0.0
    for _ in range(3):
        order = np.argsort(_ARRAY[:50_000])
        total += float(np.cumsum(_ARRAY[order])[-1])
        total += float(np.count_nonzero(_ARRAY * 2.0 > 1.0))
    return total


def calibration_seconds() -> float:
    """Wall seconds one calibration unit takes now."""
    started = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - started


def speed_scale(samples: list[float]) -> float:
    """Factor that turns times measured next to ``samples`` into reference speed."""
    return REFERENCE_S / statistics.median(samples)
