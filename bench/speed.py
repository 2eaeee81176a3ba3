"""The host's speed, measured alongside the operations of a run.

The benchmark's 2-core host changes speed by itself: the same fixed work
swings by about 15 % over seconds, and whole runs have come out twice as
fast as others of the same code an hour apart.  Thread CPU time moves with
wall time, so the change is in how fast the CPU runs, not in descheduling.
A run therefore interleaves a fixed kernel of the program's kind of work
(dicts, tuples, frozensets, sorting, small loops; none of the program's
code) with its operations, and the time metrics are scaled to the speed at
which that kernel takes `REFERENCE_MS`.
"""

from __future__ import annotations

import statistics
import time
from array import array

# the kernel's mean thread CPU time on the 2-core Xeon VM of README.md in
# its slower state; a scaled time reads as on that host in that state
REFERENCE_MS = 0.2
# one kernel call per this much operation CPU time: about 8 % of a run
EVERY_S = 0.0025
KERNEL_RESULT = 285


def kernel() -> int:
    """Ancestor lists in a fixed ternary tree of 61 nodes, keyed by frozensets."""
    parent = {x: (x - 1) // 3 for x in range(1, 61)}
    total = 0
    seen: dict[frozenset, int] = {}
    for a in range(61):
        anc = []
        z = a
        while z in parent:
            z = parent[z]
            anc.append(z)
        key = frozenset((x, (x * 7) % 11) for x in anc)
        seen[key] = seen.get(key, 0) + 1
        total += len(sorted(anc, reverse=True)) + sum(1 for x in anc if x & 1)
    return total + len(seen)


class Speed:
    """Kernel samples (thread CPU seconds), taken in proportion to the
    operation time handed to `after`."""

    def __init__(self):
        self.samples = array("d")
        self.owed = 0.0

    def sample(self) -> None:
        start = time.thread_time()
        result = kernel()
        self.samples.append(time.thread_time() - start)
        if result != KERNEL_RESULT:
            raise AssertionError(f"speed kernel returned {result}, not {KERNEL_RESULT}")

    def after(self, seconds: float) -> None:
        """Account for `seconds` of measured work: sample the kernel once per
        EVERY_S of it."""
        self.owed += seconds
        while self.owed >= EVERY_S:
            self.sample()
            self.owed -= EVERY_S

    def kernel_ms(self) -> float:
        """Mean kernel time.  Not the median: the host has short fast spells,
        which a 0.2 ms kernel call often falls inside but an operation only
        partly spans, so the median of the calls overstates the speed the
        operations saw, and the mean of calls spread in proportion to
        operation time does not."""
        return statistics.fmean(self.samples) * 1e3

    def scale(self) -> float:
        """The factor that turns a time measured here into a reference time."""
        return REFERENCE_MS / self.kernel_ms()
