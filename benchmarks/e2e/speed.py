"""Machine-speed reference for the benchmark's timings.

The benchmark shares its machine with other tenants, and the machine's
speed drifts: identical compiles run up to twice as slow for seconds at
a time, in CPU time as much as in wall time, and each CPU drifts on its
own.  Left alone, that drift is larger than any regression bound worth
having.

So timed work is bracketed by runs of :func:`kernel` — fixed
pure-Python work that shares no code with the program under test — and
its latency is divided by the kernel's slowdown around it: the median
of the nearest samples over :data:`NOMINAL_S`.  Reported times are
therefore "as if the machine ran at its calibrated speed"; a change to
the program moves them, a slow neighbour mostly does not.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Dict, List, Optional, Sequence

#: the kernel's median time on the machine the bounds were calibrated
#: on (a 2-CPU x86-64 container, CPython 3.11)
NOMINAL_S = 0.00097

#: samples either side of an op that set its slowdown; the speed
#: changes within a second, so only the nearest samples describe an op
WINDOW = 1


def kernel() -> int:
    """About a millisecond of dict, tuple and list churn."""
    table: Dict[tuple, List[int]] = {}
    acc = 0
    for i in range(5000):
        bucket = table.setdefault((i % 61, i % 13), [])
        bucket.append(i * 3 % 7)
        if len(bucket) > 8:
            acc += sum(bucket)
            bucket.clear()
    return acc


def _time_kernel(times: int) -> float:
    """The median of ``times`` kernel runs, in seconds."""
    runs = []
    for _ in range(times):
        t0 = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


class SpeedProbe:
    """Kernel samples in the order they were taken.

    With ``cpus``, each sample times the kernel on every listed CPU in
    turn and records the harmonic mean, the slowdown of load spread
    over all of them (a daemon and its workers); without, it times the
    kernel wherever the scheduler runs the calling process, which is
    where that process's own ops run."""

    def __init__(self, cpus: Optional[Sequence[int]] = None) -> None:
        self.cpus = list(cpus or ())
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        """Append one sample: the median of ``times`` kernel runs."""
        # with the collector off, the kernel's time does not depend on
        # how much garbage the program under test left behind
        collecting = gc.isenabled()
        gc.disable()
        try:
            if not self.cpus:
                self.samples.append(_time_kernel(times))
                return
            allowed = os.sched_getaffinity(0)
            per_cpu = []
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    per_cpu.append(_time_kernel(times))
            finally:
                os.sched_setaffinity(0, allowed)
            self.samples.append(len(per_cpu) / sum(1 / t for t in per_cpu))
        finally:
            if collecting:
                gc.enable()

    def slowdown(self, lo: int = 0, hi: Optional[int] = None) -> float:
        """Median sample of ``samples[lo:hi]`` over the nominal."""
        return statistics.median(self.samples[max(0, lo):hi]) / NOMINAL_S

    def slowdown_at(self, index: int) -> float:
        """The slowdown around sample ``index``."""
        return self.slowdown(index - WINDOW, index + WINDOW + 1)


def spread_probe() -> SpeedProbe:
    """A probe over every CPU this process may run on."""
    return SpeedProbe(sorted(os.sched_getaffinity(0)))
