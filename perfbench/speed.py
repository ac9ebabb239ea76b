"""Machine-speed reference for normalizing timings on a shared host.

On the 2-core KVM guest this benchmark was built on, the whole machine runs
15-30% faster or slower for seconds to minutes at a time: child CPU
time follows wall time and steal time stays near zero, so neither CPU time nor
a longer run removes the drift.  A fixed probe that never touches the library
slows down with it (correlation 0.92 with evaluate_case over 90 s), so each
timing is divided by the probe's speed factor around it:

    normalized = wall / factor,
    factor = sqrt(loop time / PY_NOMINAL_S * numpy time / NP_NOMINAL_S)

The probe is a pure-Python loop and a numpy FFT and sine on a 65536-point
array.  With the benchmark pinned to one CPU, over ten seeds a workload, it
cut the spread (interquartile range over median) of the run medians from
6.9% to 3.8% on cli-cold, from 11.3% to 4.9% on audit and from 7.9% to 4.5%
on signal.  How well it tracks the host varies with the time of day, so the
raw wall times are reported beside the normalized ones.  The nominal times
are medians of 300 probes on that machine, so normalized values read as
times on it at its usual speed.
"""

from __future__ import annotations

import math
import time

import numpy as np

PY_LOOP = 25000
NP_REPS = 2
PY_NOMINAL_S = 2.48e-3
NP_NOMINAL_S = 5.22e-3


class Speed:
    """Takes probes and keeps their factors in order."""

    def __init__(self):
        self._x = np.random.default_rng(0).standard_normal(1 << 16)
        self.factors: list[float] = []

    def probe(self) -> float:
        """Factor > 1 when the machine runs slower than nominal."""
        clock = time.perf_counter
        start = clock()
        acc = 0
        for i in range(PY_LOOP):
            acc += i * i % 7
        mid = clock()
        for _ in range(NP_REPS):
            np.fft.rfft(self._x)
            np.sin(self._x)
        end = clock()
        factor = math.sqrt((mid - start) / PY_NOMINAL_S * (end - mid) / NP_NOMINAL_S)
        self.factors.append(factor)
        return factor
