"""Host-speed calibration: a fixed pure-Python kernel timed between ops.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over seconds and minutes, in CPU time as much as in wall time. Every
timing the benchmark reports is therefore scaled to a reference host speed:
seconds x REF_KERNEL_S / (median kernel time near that op). The kernel does
not import hyperdeg, so a change to the program moves the scaled timings in
full; only the host's speed is divided out. The kernel mixes the kinds of
work hyperdeg does (string rotation and joins, per-character scans, small
and big integer arithmetic), so that its time follows the ops' time as the
host speeds up and slows down. Raw timings stay in the run record.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

REF_KERNEL_S = 1.1e-3  # the kernel's median time on the 2-core host the bounds were set on
INTERVAL_S = 0.05  # time the kernel after an op once this much time has passed since the last
WINDOW_S = 2.0  # an op is scaled by the kernel times within this distance of its midpoint
NEAREST = 9  # ...or by the nearest this many, when the window holds fewer


def kernel() -> int:
    rows = []
    for word in ("0010110111", "0001011", "011011101"):
        w = word * 6
        for i in range(len(w)):
            rows.append(w[i:] + w[:i])
    sums = [0] * 40
    for row in rows:
        for j, ch in enumerate(row[:40]):
            if ch == "1":
                sums[j] += 1
    total = 0
    for i in range(3000):
        total += i * i % 7
    ones = "\n".join(rows).count("1")
    return len(set(rows)) + ones + sum(sums) + total + math.comb(6000, 2000).bit_length()


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Calibrator:
    """Kernel times, taken between ops, and the scale they give each op."""

    def __init__(self) -> None:
        self.at: list[float] = []  # midpoint of each kernel run
        self.seconds: list[float] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Time the kernel if INTERVAL_S has passed since the last run."""
        now = perf_counter()
        if force or now - self._last >= INTERVAL_S:
            seconds = time_kernel()
            self.at.append(now + seconds / 2)
            self.seconds.append(seconds)
            self._last = perf_counter()

    def scale(self, at: float) -> float:
        """REF_KERNEL_S over the median kernel time around time `at`."""
        lo = bisect.bisect_left(self.at, at - WINDOW_S)
        hi = bisect.bisect_right(self.at, at + WINDOW_S)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.at, at)
            lo = max(0, min(mid - NEAREST // 2, len(self.at) - NEAREST))
            hi = min(len(self.at), lo + NEAREST)
        return REF_KERNEL_S / statistics.median(self.seconds[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.seconds)
