"""Host-speed reference: a fixed kernel timed between ops.

The benchmark shares a few cores of a busy host, whose speed drifts by tens
of percent within seconds.  A thread's CPU time drifts with it, so it is no
cure.  Instead a fixed reference kernel, written here and never in the
program, is timed before each op and after the last one.  An op's latency
is scaled by ``NOMINAL_MS / r``, where ``r`` is the mean reference time
around that op.  The mean, not the median: the host takes the vCPU away
for milliseconds at a time, which a long op always pays in proportion but
a short reference pass pays only now and then.  The scaled latency reads
as milliseconds on a host where one reference pass takes ``NOMINAL_MS``.
A change to the program moves the op and not the reference, so it shows
in full.

The kernel is shaped like the lab's own work: an explicit Runge-Kutta loop
on scalar floats with tuple-returning calls, then small numpy arrays.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_MS = 1.0            # one reference pass on the nominal host
WINDOW = 5                  # passes each side of an op that set its scale
_GRID = np.linspace(0.0, 6.0, 400)


def _f(x: float, v: float) -> tuple[float, float]:
    return v, -x - 0.1 * v


def _step(x: float, v: float, h: float) -> tuple[float, float, float]:
    k1 = _f(x, v)
    k2 = _f(x + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
    k3 = _f(x + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
    k4 = _f(x + h * k3[0], v + h * k3[1])
    return (x + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            v + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            abs(k1[0] - k4[0]) + abs(k1[1] - k4[1]))


def reference() -> float:
    """One pass of the reference kernel (~1 ms on a quiet 2-vCPU Xeon)."""
    x, v, h, t = 1.0, 0.0, 0.01, 0.0
    ts, xs = [], []
    while t < 6.0:
        nx, nv, err = _step(x, v, h)
        if err < 1e9 and math.isfinite(nx):
            x, v, t = nx, nv, t + h
            ts.append(t)
            xs.append(x)
    y = np.interp(_GRID, np.array(ts), np.array(xs))
    s = 0.0
    for i in range(50):
        s += float(np.max(np.abs(y[i:i + 50] - np.sin(_GRID[i:i + 50]))))
    return s


def time_reference() -> float:
    """Seconds one reference pass takes now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scale(latencies: list[float], refs: list[float]) -> list[float]:
    """Latencies in nominal-host seconds.

    ``refs[i]`` was timed just before op ``i`` and ``refs[-1]`` after the
    last op, so ``len(refs) == len(latencies) + 1``.
    """
    if len(refs) != len(latencies) + 1:
        raise ValueError("need one reference time before each op and one "
                         "after the last")
    out = []
    for i, latency in enumerate(latencies):
        around = refs[max(0, i - WINDOW + 1):i + WINDOW + 1]
        out.append(latency * NOMINAL_MS * 1e-3 / statistics.fmean(around))
    return out
