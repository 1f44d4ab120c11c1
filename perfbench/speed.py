"""The host's momentary speed, read from a fixed reference kernel.

On a shared 2-core host the same code runs up to 1.7 times slower for
stretches of a second or more, and a 30-second run sees anything from a
fifth to two thirds of its time at the fast speed. A median of raw times
then jumps between the speeds from run to run: its quartiles over ten runs
lay 0.1 to 0.6 of the median apart, depending on the hour. So a run times
this kernel at every boundary between samples, and scales each sample by
``REFERENCE_S`` over the mean of the kernel times on either side of it: a
figure reads as the time the work would take on a host where the kernel
takes ``REFERENCE_S``. The kernel
mixes what hiercl spends its time on (interpreted loops, JSON, small matrix
products) and touches no hiercl code, so a change to hiercl cannot move it.
"""
from __future__ import annotations

import json
import time
from statistics import fmean

import numpy as np

REFERENCE_S = 1e-3  # a round figure near the kernel's median time on a 2-core x86 host
_REPEATS = 3

_MATRIX = np.random.default_rng(0).standard_normal((48, 48))
_RECORDS = [{"id": i, "values": [float(v) for v in range(20)]} for i in range(60)]


def _kernel() -> None:
    json.loads(json.dumps(_RECORDS))
    m = _MATRIX
    for _ in range(15):
        m = np.tanh(m @ _MATRIX * 0.01)
    total = 0
    for i in range(1500):
        total += i * i


def reference_seconds(clock=time.perf_counter) -> float:
    """The kernel's shortest time over a few back-to-back repeats."""
    times = []
    for _ in range(_REPEATS):
        t0 = clock()
        _kernel()
        times.append(clock() - t0)
    return min(times)


def scale(before: float, after: float) -> float:
    """Factor that brings a sample timed between two kernel readings to reference speed."""
    return REFERENCE_S / fmean((before, after))
