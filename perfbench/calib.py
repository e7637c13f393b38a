"""Interleaved calibration against a frozen pure-Python kernel.

The host this benchmark runs on shares its CPUs with other tenants, and
the speed of a fixed piece of Python work drifts by 2x within a minute.
Thread CPU time drifts the same way (the slowdown is not time spent
descheduled), so the benchmark corrects for it by measurement: it runs a
short slice of a fixed kernel every ``every`` seconds, between the units
of measured work, times it on the thread's CPU clock, and scales each
measured interval by

    REFERENCE_SLICE_S / (kernel time measured next to the interval)

A calibrated value is therefore "seconds on a host where one kernel
slice takes REFERENCE_SLICE_S". The slice is timed with
``time.thread_time`` rather than the wall clock: every process of a run
shares one CPU, so a server's background work (gossip, replication)
that preempts a slice would otherwise count as host slowness and divide
part of the program's own cost out of the measured intervals. Raw values
and the kernel times are kept beside every calibrated metric as
diagnostics.

The kernel and the reference constant are frozen: changing either
changes every calibrated number, so a change to this file is a change to
the benchmark, never part of a change that claims a gain.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

#: Median slice time of :func:`kernel` on a quiet 2-vCPU Xeon host.
REFERENCE_SLICE_S = 0.0040

#: Loop trips of one kernel repetition.
KERNEL_TRIPS = 20_000

#: Repetitions per slice; the slice time is their median.
SLICE_REPS = 3


def kernel(trips: int = KERNEL_TRIPS) -> int:
    """Frozen work: integer arithmetic, a small dict and a growing list —
    the interpreter paths the analyses spend their time on."""
    acc = 0
    table = {}
    out = []
    for i in range(trips):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 1023] = i
        out.append(acc)
    return len(out) + len(table)


class Calibrator:
    """Kernel slices on the ``perf_counter`` timeline, and the factor
    that maps a raw interval on that timeline to reference seconds."""

    def __init__(self, every: float = 0.2) -> None:
        self.every = every
        #: ``(start, end, slice_seconds)`` in time order.
        self.samples: List[Tuple[float, float, float]] = []
        self._ends: List[float] = []
        self._starts: List[float] = []

    def slice(self) -> float:
        """Run one slice now and record it; returns its CPU time. The
        slice is placed on the ``perf_counter`` timeline, but timed on
        this thread's CPU clock."""
        times = []
        start = time.perf_counter()
        for _ in range(SLICE_REPS):
            t0 = time.thread_time()
            kernel()
            times.append(time.thread_time() - t0)
        end = time.perf_counter()
        k = statistics.median(times)
        self.samples.append((start, end, k))
        self._starts.append(start)
        self._ends.append(end)
        return k

    def tick(self) -> None:
        """Run a slice if ``every`` seconds passed since the last one."""
        if not self._ends or time.perf_counter() - self._ends[-1] >= self.every:
            self.slice()

    def factor(self, t0: float, t1: float) -> float:
        """Reference/measured kernel time around the interval ``[t0, t1]``:
        the mean of the last slice that ended by ``t0`` and the first
        that started at or after ``t1`` (the nearest one when a side has
        none)."""
        if not self.samples:
            raise RuntimeError("no calibration slice recorded")
        before = bisect.bisect_right(self._ends, t0) - 1
        after = bisect.bisect_left(self._starts, t1)
        if before < 0:
            before = 0
        if after >= len(self.samples):
            after = len(self.samples) - 1
        k = (self.samples[before][2] + self.samples[after][2]) / 2.0
        return REFERENCE_SLICE_S / k

    def scaled(self, t0: float, t1: float) -> float:
        """The interval ``[t0, t1]`` in calibrated (reference) seconds."""
        return (t1 - t0) * self.factor(t0, t1)

    def summary(self) -> dict:
        ks = [k for _s, _e, k in self.samples]
        return {
            "reference_slice_ms": REFERENCE_SLICE_S * 1000.0,
            "measured_slice_ms.p50": statistics.median(ks) * 1000.0 if ks else None,
            "measured_slice_ms.min": min(ks) * 1000.0 if ks else None,
            "measured_slice_ms.max": max(ks) * 1000.0 if ks else None,
            "slices": len(ks),
            "every_s": self.every,
        }
