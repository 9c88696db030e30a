"""A fixed calibration kernel that measures how fast the host runs right now.

On a shared host the same code runs up to 1.8 times slower for tens of
seconds at a time while other tenants load the machine, and CPU time
slows with wall time, so neither shows the program's own cost.  The
benchmark therefore times this kernel around the operations it
measures and scales each operation's time by ``REFERENCE_S / kernel
time``: the result is the time the operation would take on a host that
runs the kernel in ``REFERENCE_S``.  A change to switchlin leaves the
kernel alone, so it moves the scaled times as it moves the raw ones.

The kernel mixes the kinds of work the workloads do: an interpreter
loop, small float function calls shaped like an RK4 step, and numpy
element-wise passes over arrays larger than the CPU caches.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from time import perf_counter

import numpy as np

#: the kernel's median time on the host the benchmark was written on,
#: an Intel Xeon 2-core VM (see the run records for the CPU model) [s]
REFERENCE_S = 0.010


def _slope(x: float, v: float) -> tuple[float, float]:
    return v, -9.81 * math.sin(x) - 0.1 * v


class Calibrator:
    """Times the kernel and keeps the median of its latest readings.

    The median of a few readings ignores a single reading slowed by an
    interrupt; readings at most every ``EVERY_S`` keep the kernel's share
    of a run small when operations are short.
    """

    READINGS = 3
    EVERY_S = 0.1
    INT_LOOP = 20_000
    RK4_STEPS = 1_000
    SIN_SIZE = 250_000
    STREAM_SIZE = 1_000_000

    def __init__(self):
        rng = np.random.default_rng(1)
        self.a = rng.uniform(-1.0, 1.0, self.STREAM_SIZE)
        self.b = self.a[::-1].copy()
        self.c = np.empty_like(self.a)
        self.kernel()  # first touch of the arrays and code
        self.recent = deque((self.kernel() for _ in range(self.READINGS)), maxlen=self.READINGS)
        self.last = perf_counter()

    def kernel(self) -> float:
        """Runs the fixed work once; returns its wall time [s]."""
        t0 = perf_counter()
        s = 0
        for i in range(self.INT_LOOP):
            s += i * i % 7
        x, v, h = 0.5, 0.0, 0.01
        for _ in range(self.RK4_STEPS):
            a1, b1 = _slope(x, v)
            a2, b2 = _slope(x + h / 2 * a1, v + h / 2 * b1)
            a3, b3 = _slope(x + h / 2 * a2, v + h / 2 * b2)
            a4, b4 = _slope(x + h * a3, v + h * b3)
            x += h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
            v += h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
        np.sin(self.a[: self.SIN_SIZE], out=self.c[: self.SIN_SIZE])
        np.multiply(self.a, self.b, out=self.c)
        np.add(self.c, self.a, out=self.c)
        float(self.c.sum())
        return perf_counter() - t0

    def scale(self) -> float:
        """Factor that turns a time measured now into reference-host time.

        Takes a new reading when the last one is ``EVERY_S`` old.
        """
        if perf_counter() - self.last >= self.EVERY_S:
            self.recent.append(self.kernel())
            self.last = perf_counter()
        return REFERENCE_S / statistics.median(self.recent)
