"""Host-speed calibration for the benchmark's timing metrics.

The benchmark runs on small shared hosts whose CPU speed changes with the
load of other tenants: the same code runs up to about twice as long for
seconds to minutes at a time, and the lost time is not visible as steal
time.  No statistic taken inside one run removes an episode that outlasts
the run.  So each timing is set next to a fixed reference workload timed
right after it, and reported in reference seconds: the measured seconds
divided by the host factor, the reference workload's slowdown against its
time on the reference host.

The reference workload has two kernels, because the program's time goes to
both kinds of work and the host slows them by different amounts: Python
that builds and sorts thousands of small tuples, like the protocol engine
and its transcripts, and numpy draws over one 16,384-element batch, like
the audits.  Neither touches dpdist, so no change to the program moves
the host factor.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Round figures for each kernel's time on the reference host: a 2-core
# shared Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6.
REFERENCE_PY_S = 0.0020
REFERENCE_NP_S = 0.0040
# The Python kernel's weight in the host factor; the numpy kernel has the
# rest.  Chosen so that the factor tracks the mix of all four workloads.
PY_WEIGHT = 0.4
# After a timed stretch of d seconds the kernels run for about d times this.
SHARE = 1.0 / 3.0


def _group(row: tuple) -> int:
    return row[1]


def python_kernel() -> int:
    rows = [(i, i & 7, float(i), (i, i)) for i in range(6000)]
    rows.sort(key=_group)
    return len(rows)


def numpy_kernel() -> float:
    rng = np.random.default_rng(0)
    x = rng.binomial(100, 0.3, size=16384)
    y = rng.random(16384)
    return float((x * y).sum())


def host_factor(busy_s: float) -> float:
    """How much slower than the reference host this host runs right now.

    Runs both kernels in turn, at least once, for about ``SHARE`` of the
    ``busy_s`` seconds just measured, and compares their mean times with
    the reference times.  The garbage collector is off meanwhile, so the
    kernels' times do not depend on what the caller holds in memory.
    """
    py = np_ = 0.0
    rounds = 0
    clock = time.perf_counter
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        while True:
            t0 = clock()
            python_kernel()
            t1 = clock()
            numpy_kernel()
            t2 = clock()
            py += t1 - t0
            np_ += t2 - t1
            rounds += 1
            if t2 - start >= SHARE * busy_s:
                break
    finally:
        if collecting:
            gc.enable()
    return (PY_WEIGHT * py / REFERENCE_PY_S + (1.0 - PY_WEIGHT) * np_ / REFERENCE_NP_S) / rounds
