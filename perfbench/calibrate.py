"""A fixed pure-Python workload that times how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes: neighbours contend for the caches, the memory bus and the
sibling hyperthread, and the guest cannot see it (no steal time, CPU time
drifts with wall time).  ``run.py`` times :func:`calibrate` between
repetitions, in its own process, and scales each repetition's times by
``REFERENCE_S / calibration``, the mean of the calibrations just before
and just after it.  A scaled time reads as seconds on a host running this
workload in ``REFERENCE_S``.

The mix resembles the simulator's host work: building many small
containers (store and graph set-up), integer arithmetic, and a
heap-ordered loop of generator resumptions (the event kernel).  Nothing
here imports the program, so a change to the program never changes the
calibration.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: A round figure inside the range ``calibrate`` took on the reference
#: host, a shared 2-vCPU Xeon VM (2.1 GHz) running Python 3.11: 0.3 s in
#: its fast phases to 0.9 s in its slow ones.
REFERENCE_S = 0.5


def _containers() -> int:
    total = 0
    for _ in range(3):
        table = {i: [i, i + 1, (i, 2 * i)] for i in range(150_000)}
        total += len(table)
        del table
    return total


def _arithmetic() -> int:
    total = 0
    for i in range(2_000_000):
        total += i & 7
    return total


def _events() -> int:
    def process(steps):
        for step in range(steps):
            yield step % 5 + 1

    processes = [process(400) for _ in range(200)]
    heap = [(0, index) for index in range(len(processes))]
    heapq.heapify(heap)
    fired = 0
    while heap:
        now, index = heapq.heappop(heap)
        try:
            heapq.heappush(heap, (now + next(processes[index]), index))
        except StopIteration:
            continue
        fired += 1
    return fired


def calibrate() -> float:
    """Seconds the fixed calibration workload takes now."""
    t0 = perf_counter()
    _containers()
    _arithmetic()
    _events()
    return perf_counter() - t0
