"""Wall times scaled to the host's uncontended speed.

On the shared 2-vCPU host this benchmark was built on, the same code
runs up to 1.6x slower in contended phases that last minutes. A fixed
reference kernel, timed in short bursts between operations, measures
how fast the host runs at that moment. A time at reference speed is a
wall time times REF_S over the kernel's time measured alongside it: the
time the work would take if the kernel took REF_S, its time on that
host when uncontended. README.md gives the spreads that motivated it.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REF_S = 3.3e-4
BURST = 5  # kernel runs per burst


def kernel() -> None:
    """Interpreter-bound work on a small array, about 0.33 ms uncontended."""
    a = np.ones(64)
    for _ in range(150):
        a = np.tanh(a * 0.5 + 0.1)


class Speedometer:
    def __init__(self):
        self.samples: list[float] = []
        self.burst_ends: list[float] = []
        self.burst_medians: list[float] = []
        self.spent_s = 0.0  # wall time of all bursts

    def burst(self) -> float:
        """Time the kernel BURST times; the median of the burst."""
        times = []
        first = perf_counter()
        for _ in range(BURST):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        self.samples.extend(times)
        self.burst_medians.append(statistics.median(times))
        self.burst_ends.append(perf_counter())
        self.spent_s += self.burst_ends[-1] - first
        return self.burst_medians[-1]

    def at_reference_speed(self, wall: float, start: float) -> float:
        """A wall time at reference speed, for work that began at `start`.

        The kernel's time alongside the work is the mean of the medians of
        the last burst before it and the first burst after it.
        """
        i = bisect.bisect_right(self.burst_ends, start)
        near = self.burst_medians[max(i - 1, 0) : i + 1]
        return wall * REF_S * len(near) / sum(near)
