"""A gauge of how fast this machine runs Python at a given moment.

On a shared machine a CPU can run at full speed or markedly slower for
stretches of a fraction of a second to tens of seconds, and each CPU
changes on its own.  The benchmark times a fixed loop just before and just
after each measurement and reports the measurement at reference speed:
t * REFERENCE_S / (mean of the two loop times).  The loop runs on the
measuring thread's own CPU for work done in that thread, and on every CPU
in turn for work spread over several.
"""

import os
import statistics
import time

# calibrate() takes about this long when the CPU runs at full speed
REFERENCE_S = 0.004
LOOPS = 20000


def calibrate():
    """Seconds of a fixed pure-Python loop, best of 3."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table, acc = {}, 0
        for i in range(LOOPS):
            q, r = divmod(i, 7)
            table[r] = (q, r)
            acc += table[r][0] % 5
        best = min(best, time.perf_counter() - start)
    return best


def calibrate_each_cpu():
    """Mean of calibrate() over the CPUs the calling thread may run on,
    pinning the thread to one CPU at a time; its CPU set is restored after."""
    cpus = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate())
        return statistics.mean(times)
    finally:
        os.sched_setaffinity(0, cpus)


def factor(before, after):
    """Multiplier that takes a time measured between two calibrations to
    reference speed."""
    return REFERENCE_S / ((before + after) / 2)
