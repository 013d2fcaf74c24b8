"""How fast the host runs Python right now, measured beside the program.

The benchmark shares its host with other tenants, and their load moves
the host's speed by up to 1.8x for minutes at a time: long enough that
two 30-second runs of the same code disagree by more than any sensible
regression bound, whatever statistic a run takes over its own samples.
So right before and right after each timed operation the benchmark
times a fixed kernel of its own, and divides the operation's wall by
how much slower than on the reference host the kernel ran, on average:
every reported time is in seconds of the reference host.  The kernel
calls nothing in the program, so a faster program shows in full.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Median seconds of one :func:`kernel` call, taken between operations,
#: on the reference host (the 2-vCPU container of the README baseline).
REFERENCE_KERNEL_S = 0.003
#: Kernel calls per sample; one burst of contention moves only one.
REPEATS = 3


def kernel() -> int:
    """Interpreter work of the kind the program does: string building,
    dict inserts, tuple and list allocation, a sort and a split."""
    rows = {}
    for i in range(3000):
        key = f"k{i * 7919 % 3001}"
        rows[key] = (i, key.upper(), [i, i + 1])
    text = ",".join(sorted(rows))
    return sum(len(part) for part in text.split(",")) \
        + sum(row[0] for row in rows.values())


class SpeedProbe:
    """The slowdowns sampled through a run."""

    def __init__(self) -> None:
        self.slowdowns: list[float] = []

    def sample(self) -> float:
        """Time :data:`REPEATS` kernel calls, with the collector off so
        that the program's heap does not count, and return how many
        times slower than the reference host the host runs now."""
        timings = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(REPEATS):
                started = time.perf_counter()
                kernel()
                timings.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
        slowdown = statistics.median(timings) / REFERENCE_KERNEL_S
        self.slowdowns.append(slowdown)
        return slowdown

    def across(self, before: float) -> float:
        """The slowdown across an operation that ``before`` was sampled
        right before: its mean with a sample taken right after."""
        return (before + self.sample()) / 2

    def median_slowdown(self) -> float:
        return statistics.median(self.slowdowns)
