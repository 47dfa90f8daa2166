"""Host-speed calibration: compute-bound times at a fixed reference speed.

The shared host the benchmark was defined on changes speed by up to 2x,
in patches that often last longer than a run, so raw wall times of
identical runs spread by 15-60% of their median.  A fixed numpy-and-
Python kernel timed on the same thread right before and right after a
measured interval slows down with it: over repeated sweeps the kernel's
time correlated with each experiment's at r = 0.77-0.99, and
normalizing by it cut the spread of a contended set of sweeps from 63%
to 10%.

The kernel only tracks the CPU it runs on, so each measured thread is
pinned to one CPU (:func:`pin_thread`) and its kernel runs on that
thread.  The kernel runs in :data:`CHUNKS` equal chunks and its time is the
fastest chunk's times :data:`CHUNKS`, so a stall during one chunk does
not move it.  A *calibrated* time is the raw time scaled by
:data:`REFERENCE_S` over the faster of the kernel runs around the
interval: the time the interval would have taken on a host where the
kernel takes :data:`REFERENCE_S`.  The kernel never calls into
``repro``, so a change to the program moves calibrated times exactly as
it moves raw ones.
"""

from __future__ import annotations

import math
import os
import time

__all__ = ["CHUNKS", "REFERENCE_S", "calibrated", "kernel_s", "pin_thread"]

#: The kernel's time on an undisturbed host of the kind the benchmark
#: was defined on (a 2-CPU Xeon VM at 2.0 GHz); it sets the unit.
REFERENCE_S = 0.125
#: Equal chunks the kernel runs in.
CHUNKS = 6


def kernel_s() -> float:
    """Time the reference kernel on this thread: fastest chunk x CHUNKS.

    Each chunk does elementwise float work, a boolean reduction and a row
    sort on a 4 MiB array, and builds and sorts a dict in pure Python:
    the mix the experiments and the service spend their time in.
    """
    import numpy as np

    array = np.random.default_rng(12345).standard_normal((512, 1024))
    fastest = math.inf
    for _ in range(CHUNKS):
        started = time.perf_counter()
        for step in range(8):
            scaled = array * 1.0001 + 0.25
            float((scaled > 0.3).mean(axis=1).sum())
            float(np.sort(scaled[:64], axis=1)[:, 512].sum())
            table = {}
            for key in range(6000):
                table[key] = (key * 7919 + step) % 6007
            sum(sorted(table.values())[:10])
        fastest = min(fastest, time.perf_counter() - started)
    return fastest * CHUNKS


def calibrated(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` at the reference speed, from the kernel runs around it."""
    return raw_s * REFERENCE_S / min(before_s, after_s)


def pin_thread(cpu: int) -> None:
    """Keep the calling thread (and threads it starts) on ``cpu``."""
    os.sched_setaffinity(0, {cpu})
