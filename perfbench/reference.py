"""A fixed pure-Python kernel that measures how fast this machine runs Python now.

On a shared machine the speed of the same code drifts by half or more over
tens of seconds.  The benchmark times this kernel next to the compiles and
reports compile times scaled to a machine on which the kernel takes
``REFERENCE_S``.  The kernel uses nothing from ``surfc``, so a change to the
program cannot move it; it does the kind of work the compiler does: dict- and
tuple-heavy shortest paths and breadth-first search on a grid, then
building and sorting many small records.
"""
from __future__ import annotations

import gc
import heapq
import math
import random
import statistics
from collections import deque
from time import perf_counter

REFERENCE_S = 0.030  # nominal kernel time that scaled seconds refer to
EVERY = 0.5  # seconds of work between kernel samples
BURST = 9    # most kernel samples taken in one go
SPAN = 2.5   # seconds around a compile whose kernel samples scale it

_SIDE = 80
_rng = random.Random(7)
_WEIGHT = {(r, c): 1 + _rng.random() for r in range(_SIDE) for c in range(_SIDE)}


def _kernel() -> int:
    dist = {(0, 0): 0.0}
    heap = [(0.0, (0, 0))]
    while heap:
        d, (r, c) = heapq.heappop(heap)
        if d > dist[(r, c)]:
            continue
        for q in ((r + 1, c), (r, c + 1), (r - 1, c), (r, c - 1)):
            if q in _WEIGHT and d + _WEIGHT[q] < dist.get(q, float("inf")):
                dist[q] = d + _WEIGHT[q]
                heapq.heappush(heap, (dist[q], q))
    seen = {(0, 0)}
    queue = deque([(0, 0)])
    while queue:
        r, c = queue.popleft()
        for q in ((r + 1, c), (r, c + 1), (r - 1, c), (r, c - 1)):
            if q in _WEIGHT and q not in seen:
                seen.add(q)
                queue.append(q)
    records = [{"cell": cell, "hops": [d, -d]} for cell, d in dist.items()]
    records.sort(key=lambda rec: (rec["hops"][0] % 1.0, rec["cell"]))
    return len(records)


def sample() -> float:
    """Seconds for one run of the kernel.  The cyclic collector is off meanwhile:
    its passes cost in proportion to the whole heap, which is the workload's,
    not the kernel's."""
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


class SpeedProbe:
    """Kernel times taken between compiles: one per ``EVERY`` seconds of work
    since the last, up to ``BURST`` at a time, so that the kernel costs about
    the same share of every workload and short compiles are not swamped."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self._last = 0.0

    def tick(self) -> None:
        """Sample the kernel as due."""
        due = int((perf_counter() - self._last) / EVERY) if self.samples else BURST
        for _ in range(min(due, BURST)):
            self.samples.append((perf_counter(), sample()))
        if due:
            self._last = perf_counter()

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Factor from wall seconds to seconds at reference speed for work done
        from ``start`` to ``end``: ``REFERENCE_S`` over the kernel's mean time
        within ``SPAN`` seconds of that interval.  The mean, not the median,
        because the machine flips between a fast and a slow state and a long
        compile pays for the time it spends in each."""
        near = [k for t, k in self.samples if start - SPAN <= t <= end + SPAN]
        return REFERENCE_S / statistics.fmean(near or [k for _, k in self.samples])
