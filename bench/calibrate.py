"""The machine-speed calibration the benchmark's times are expressed against.

The reference machine (2 vCPUs) has slow phases: the same corpus in one
process runs up to 1.8 times slower for tens of seconds, in CPU time as in
wall time, so a minimum over repeats is not steady.  Every timed document
is therefore measured against `calibrate()`, a fixed allocation-heavy
computation (Fractions, tuples, a dict) run just before and just after it;
the ratio of the two cancels the phase.  Ratios are turned back into
seconds with CAL_S, the calibration's time on the reference machine when
quiet, so a reported time reads as seconds on that machine.
"""

from __future__ import annotations

import time
from fractions import Fraction

# calibrate() on the reference machine (Intel Xeon vCPU at 2.1 GHz,
# CPython 3.11.7), minimum over quiet runs
CAL_S = 0.00210


def calibrate(repeats=3):
    """Fastest of `repeats` runs of the fixed computation, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        table = {}
        for i in range(400):
            key = (Fraction(i, 7) + Fraction(3, 5), Fraction(i % 11, 3))
            table[key] = table.get(key, 0) + 1
        best = min(best, time.perf_counter() - start)
    return best
