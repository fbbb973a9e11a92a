"""Machine-speed calibration between operations.

On the 2-vCPU virtual machine this benchmark was tuned on, the same code
runs up to 50% slower for stretches of seconds to minutes, as other load
shares the physical cores.  Wall time alone then varies more between runs
than any regression worth catching.  `Calibrator` times a fixed reference kernel
(Python dict work and small numpy vector ops) between operations, and
`scale` expresses each operation's time at the speed where that kernel
takes REFERENCE_S.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

REFERENCE_S = 0.00016  # kernel time that defines reference speed
WARMUP = 20  # kernel runs before the first sample, to fill caches
INTERVAL_S = 0.05  # most loop time between two samples
REPEATS = 5  # each sample is the fastest of this many kernel runs


def _kernel() -> float:
    acc: dict[int, int] = {}
    for i in range(1000):
        acc[i % 97] = acc.get(i % 97, 0) + i
    a = np.arange(2000.0)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    return float(a[-1]) + len(acc)


class Calibrator:
    def __init__(self):
        for _ in range(WARMUP):
            _kernel()
        self.times: list[int] = []  # perf_counter_ns at each sample
        self.samples: list[float] = []  # kernel seconds
        self._last = 0

    def sample(self) -> None:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        self._last = time.perf_counter_ns()
        self.times.append(self._last)
        self.samples.append(best)

    def maybe_sample(self) -> None:
        if time.perf_counter_ns() - self._last >= INTERVAL_S * 1e9:
            self.sample()

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Factor taking a wall time measured between start_ns and end_ns to
        reference speed: REFERENCE_S over the mean of the samples taken
        just before and just after."""
        after = bisect.bisect_left(self.times, end_ns)
        before = bisect.bisect_right(self.times, start_ns) - 1
        near = [self.samples[i] for i in (before, after) if 0 <= i < len(self.samples)]
        return REFERENCE_S / (sum(near) / len(near))
