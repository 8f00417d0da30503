"""Call timings rescaled by the machine speed measured around each call.

The 2-core VM this benchmark was written on runs the same code at two
speeds about 1.5x apart, and the slow state lasts from seconds to
minutes whatever the process does: every layer of ``run_select`` slows
down by the same factor, and CPU time grows with wall time. Raw medians
of 25-second runs therefore differed by 10-29% from run to run.

``SteadyClock`` times a fixed reference loop before and after every
timed call, in two parts: a core part (Python arithmetic, small SVDs, a
sort) and a stream part (matrix products and a column-wise argmax over
a 32 MB array). Each part's time over its fast-state time is a slowdown;
a call's wall and CPU seconds are divided by the slowdowns averaged over
the samples before and after it, weighted by the workload's
``core_share``. Results read as seconds at the fast-state speed of that
VM. The raw times and the slowdowns are kept as well.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np

# the two reference loops in the fast state of that VM
CORE_REFERENCE_S = 0.0200
STREAM_REFERENCE_S = 0.0340


@dataclass(frozen=True)
class Timing:
    wall_s: float
    cpu_s: float
    factor: float       # machine slowdown over the call, 1.0 in the fast state
    core: float         # mean core-loop slowdown before and after the call
    stream: float       # mean stream-loop slowdown before and after the call

    @property
    def steady_wall_s(self) -> float:
        return self.wall_s / self.factor

    @property
    def steady_cpu_s(self) -> float:
        return self.cpu_s / self.factor


class SteadyClock:
    """Times calls one after another; each shares a speed sample with the next.

    ``core_share`` is the part of the timed work that runs like the core
    loop (interpreter and small arrays) rather than like the stream loop
    (matrix products and passes over arrays larger than the L2 cache).
    """

    def __init__(self, core_share: float):
        self.core_share = core_share
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(9, 9))
        self._sort = rng.normal(size=20000)
        self._wide = rng.normal(size=(500, 128))
        self._big = rng.normal(size=(2000, 2000))
        self._last = self.speed()

    def speed(self) -> tuple[float, float]:
        """Slowdown of the core loop and of the stream loop, timed now."""
        t0 = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i
        for _ in range(600):
            np.linalg.svd(self._small)
        for _ in range(20):
            np.sort(self._sort)
        t1 = time.perf_counter()
        for _ in range(4):
            self._wide @ self._wide.T
        np.argmax(self._big, axis=0)
        t2 = time.perf_counter()
        return (t1 - t0) / CORE_REFERENCE_S, (t2 - t1) / STREAM_REFERENCE_S

    def call(self, timings: list, fn, *args, **kwargs):
        """Call ``fn``, append its ``Timing`` to ``timings`` and return its result."""
        gc.collect()
        before = self._last
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self._last = self.speed()
        core = (before[0] + self._last[0]) / 2.0
        stream = (before[1] + self._last[1]) / 2.0
        factor = self.core_share * core + (1.0 - self.core_share) * stream
        timings.append(Timing(wall, cpu, factor, core, stream))
        return result


def median(timings: list, attr: str) -> float:
    return statistics.median(getattr(t, attr) for t in timings)
