"""Machine-speed reference, sampled between ops, for normalizing timings.

On a shared host the same Python code can run at very different speeds
from one minute to the next (a factor of 1.8 was seen on a 2-vCPU cloud
VM), which swamps any code change.  A fixed kernel, independent of wctsv
and shaped like its hot path (frozen-dataclass construction with
validation, branchy float arithmetic, and small numpy matrix-vector
products, sorts and cumulative sums), is timed every ``interval_ms`` of
wall time.  Its duration over ``REF_NOMINAL_S`` is the
local slowdown factor; dividing a measured interval by the factor around
it gives the interval at reference speed.  On that VM the ratio of a
workload op to the kernel stayed within about 3% while raw op time moved
by 1.8x.

Kernel time is excluded from every measured interval.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

SCALAR_ITERATIONS = 700
VECTOR_ITERATIONS = 70
# the kernel's duration on the reference host (fast state of the VM above)
REF_NOMINAL_S = 1e-3
# factor = median of this many samples nearest in time
NEIGHBOURS = 5


@dataclass(frozen=True)
class _Profile:
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("bad profile")


def _bound(p: _Profile, t: float) -> float:
    if t <= p.mu - p.sigma:
        return p.sigma * p.sigma + (t - p.mu) ** 2
    if t <= p.mu:
        return 0.5 * (p.mu - t + p.sigma) ** 2
    return 0.5 * p.sigma * p.sigma


_COV = np.fromfunction(lambda i, j: 1.0 / (1.0 + np.abs(i - j)), (12, 12))
_MU = np.linspace(-1.0, 1.0, 12)
_W = np.full(12, 1.0 / 12)


def kernel() -> float:
    total = 0.0
    for i in range(SCALAR_ITERATIONS):
        total += _bound(_Profile(i * 1e-4, 0.01 + i * 1e-5), 0.05)
    for _ in range(VECTOR_ITERATIONS):
        cw = _COV @ _W
        total += float(_W @ cw) + float(_W @ _MU)
        total += float(np.cumsum(np.sort(_W)[::-1])[-1])
    return total


class SpeedClock:
    """Kernel samples over time; converts wall intervals to reference speed."""

    def __init__(self, interval_ms: float) -> None:
        self.interval_ns = int(interval_ms * 1e6)
        self.starts: list[int] = []
        self.durations: list[int] = []

    def sample(self) -> None:
        start = perf_counter_ns()
        kernel()
        self.starts.append(start)
        self.durations.append(perf_counter_ns() - start)

    def due(self) -> bool:
        """Whether ``interval_ms`` has passed since the last sample."""
        return not self.starts or perf_counter_ns() - self.starts[-1] >= self.interval_ns

    def factor_at(self, t_ns: int) -> float:
        """Local slowdown: median duration of the nearest samples / nominal."""
        i = bisect.bisect_left(self.starts, t_ns)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.starts) - NEIGHBOURS))
        window = self.durations[lo : lo + NEIGHBOURS]
        return statistics.median(window) / 1e9 / REF_NOMINAL_S

    def kernel_ns(self, start: int, end: int) -> int:
        """Kernel time spent inside [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])

    def normalize(self, start: int, end: int) -> float:
        """Seconds in [start, end), kernel time excluded, at reference speed."""
        return (end - start - self.kernel_ns(start, end)) / 1e9 / self.factor_at((start + end) // 2)
