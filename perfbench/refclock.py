"""Reference kernel and reference-normalized time.

The machine's speed drifts by more than half within a minute, in phases of
seconds, and the drift hits the program and any pure-Python loop alike.  So
every timed number is divided by the speed of a small fixed kernel that
runs in the same process, interleaved with the work it normalizes: an
interval timer runs it every ``INTERVAL_S`` of wall time, between or inside
operations and set-up calls alike, so even a single long call is
normalized by the kernel runs made while it ran.

The kernel does 1,000 integer multiply-adds, 400 tuple-keyed dict lookups
each followed by ``math.log``, and one keyed sort of 200 tuples, all on its
own small tables.  A nominal machine runs it in ``NOMINAL_KERNEL_S``; one
normalized second is the time such a machine would take, so a normalized
duration is ``raw * NOMINAL_KERNEL_S / local kernel time``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from bisect import bisect_right
from contextlib import contextmanager
from typing import Iterator

NOMINAL_KERNEL_S = 250e-6
INTERVAL_S = 0.01

_TABLE = {(i, j): 1.0 + 7 * i + j for i in range(20) for j in range(7)}
_ITEMS = [((i * 7919) % 211, i) for i in range(200)]


def _sort_key(item: tuple[int, int]) -> tuple[int, int]:
    return (item[0], -item[1])


def reference_kernel() -> int:
    acc = 0
    for i in range(1000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    total = 0.0
    for i in range(400):
        total += math.log(_TABLE[(i % 20, i % 7)])
    ordered = sorted(_ITEMS, key=_sort_key)
    return acc ^ int(total * 1000) ^ ordered[0][1]


KERNEL_RESULT = reference_kernel()


class RefClock:
    """Runs the kernel interleaved with work and normalizes the work's time.

    Inside ``interleaved()`` a SIGALRM interval timer runs the kernel every
    ``INTERVAL_S``.  Work intervals are recorded by the caller as
    ``(start, end)`` perf_counter pairs; kernel runs inside an interval are
    excluded from its time.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_total = 0.0  # seconds spent in the kernel so far
        self.bad_results = 0
        self._running = False

    def _run(self) -> None:
        if self._running:  # a timer signal during a run: skip, keep runs disjoint
            return
        self._running = True
        t0 = time.perf_counter()
        result = reference_kernel()
        t1 = time.perf_counter()
        if result != KERNEL_RESULT:
            self.bad_results += 1
        self.starts.append(t0)
        self.ends.append(t1)
        self.kernel_total += t1 - t0
        self._running = False

    def _burst(self) -> None:
        for _ in range(2):
            self._run()

    @contextmanager
    def interleaved(self) -> Iterator["RefClock"]:
        """Run the kernel on a timer; two runs open and close the stretch."""
        previous = signal.signal(signal.SIGALRM, lambda _sig, _frame: self._run())
        self._burst()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._burst()

    # --- normalization ------------------------------------------------------

    def _gap_factors(self) -> list[float]:
        """Normalization factor of each gap between kernel runs.

        Gap i lies between run i and run i + 1 (gap -1 before the first,
        the last gap after the last run); its factor uses the median of the
        two runs on each side, so one disturbed kernel run does not count.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        n = len(durations)
        factors = []
        for gap in range(-1, n):
            near = durations[max(0, gap - 1):min(n, gap + 3)]
            factors.append(NOMINAL_KERNEL_S / statistics.median(near))
        return factors

    def normalize(self, intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
        """(raw, normalized) seconds of each interval, kernel time excluded."""
        if not self.ends:
            raise RuntimeError("no reference kernel run recorded")
        factors = self._gap_factors()
        n = len(self.ends)
        out = []
        for a, b in intervals:
            raw = norm = 0.0
            gap = bisect_right(self.ends, a) - 1  # last kernel ending by a
            while True:
                lo = max(a, self.ends[gap]) if gap >= 0 else a
                hi = min(b, self.starts[gap + 1]) if gap + 1 < n else b
                if hi > lo:
                    raw += hi - lo
                    norm += (hi - lo) * factors[gap + 1]
                gap += 1
                if gap >= n or self.ends[gap] >= b:
                    break
            out.append((raw, norm))
        return out

    def rate(self) -> float:
        """Kernel runs per second of kernel time over everything recorded."""
        return len(self.ends) / self.kernel_total

    def median_kernel_s(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))
