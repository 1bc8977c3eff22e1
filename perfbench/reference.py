"""Measurements taken inside a measured process: the reference loop whose
duration is the unit `cal` of the benchmark, and the process's peak memory.

The speed of a shared machine drifts by tens of percent over minutes, and
all of the benchmark's work is bound by the same processor.  Timing this
fixed loop right next to each measured operation and reporting the ratio
cancels that drift.  The loop mixes what the per-point code does (float
arithmetic, small numpy arrays, short-lived objects) and never touches
dipolepair, so no change to the package can move it.
"""
from __future__ import annotations

import math
import resource
import statistics
import time

import numpy as np


def work() -> float:
    acc = 0.0
    for i in range(400):
        x = i * 1e-3
        e = np.array([x, -x, 0.5 * x, 0.0])
        w = np.exp(-(e - e.min()))
        acc += float(w.sum() / w.max()) + math.sqrt(x)
        acc -= len({"x": x, "pair": (x, acc)})
    return acc


def calibrate(reps: int = 25) -> float:
    """Median seconds of work(), after one untimed call that wakes the core."""
    work()
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        work()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def peak_rss_mb() -> float:
    """Largest resident set, in MB, of this process since it started its
    program (VmHWM) or of any child process it waited for.

    The ru_maxrss that wait4 reports for a child also holds the high-water
    mark of the process that spawned it, carried across exec, so the
    measured process reads its own."""
    hwm_kb = 0
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                hwm_kb = int(line.split()[1])
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(hwm_kb, children_kb) / 1024.0
