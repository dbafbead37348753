"""Times in reference-speed seconds.

The small VMs this benchmark runs on drift between fast and slow spells
of several seconds: a fixed pure-Python loop can take 40% longer for a
while, and so does every program under test.  Each timed call is
therefore bracketed by :func:`calibrate` (the fixed loop), and its
duration is scaled by ``REF_S`` over the mean of the two loop times.
The result reads as "seconds on a host where the loop takes ``REF_S``"
and cancels most of the drift.  The raw, unscaled times are kept too.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REF_S", "calibrate", "Clock"]

#: duration of one calibration loop on the reference host
REF_S = 0.020
CAL_ITERS = 200_000


def calibrate() -> float:
    """Seconds one pass of the fixed calibration loop takes right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_ITERS):
        s += i * i & 1023
    return time.perf_counter() - t0


class Clock:
    """Scaled timing; ``factors`` keeps every bracket's scale."""

    def __init__(self):
        self.cal = calibrate()
        self.factors: list[float] = []

    def bracket(self) -> float:
        """Close the current bracket: recalibrate and return the scale
        for whatever ran since the previous calibration."""
        before = self.cal
        self.cal = calibrate()
        factor = 2.0 * REF_S / (before + self.cal)
        self.factors.append(factor)
        return factor

    def time(self, fn, *args, **kwargs):
        """``(result, scaled seconds, raw seconds)`` of one call."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        return result, raw * self.bracket(), raw

    def median_factor(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0
