"""Host-speed calibration: latencies scaled to a reference host speed.

The benchmark shares a few cores of a host with other tenants.  They slow
this process's CPU by 20-100% for stretches of seconds to minutes, so whole
runs of unchanged code differ by that much.  Process CPU time does not show
it (on such a host it equals wall time), so the runner measures it: after
every operation it times a fixed unit of pure-Python work that shares no
code with feyngkz (``unit``), worth SHARE of the operation's time, and each
latency is multiplied by REFERENCE_S over the unit time around the
operation: the mean of the median unit times in WINDOW_S before it and in
WINDOW_S after it, so that a long operation is scaled by the host's speed on
both sides of it and not only by the burst of units that follows it.  A
scaled latency reads as the latency would on a host where the unit takes
REFERENCE_S.  A change to feyngkz cannot move the units, so every change in
its speed shows in full.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.4e-3    # about the unit's time on a quiet 2.0 GHz Xeon vCPU
SHARE = 0.1             # calibration time per second of operations
WINDOW_S = 1.0          # units this close to an operation set its scale


def unit() -> int:
    """Fixed pure-Python work of the kinds feyngkz does: rational
    arithmetic, dict and tuple updates, sorting."""
    total = Fraction(0)
    table = {}
    for i in range(1, 100):
        total += Fraction(i % 7 + 1, i)
        key = (i % 13, i % 5)
        table[key] = table.get(key, 0) + i
        table[key] += len(sorted((i * 37 + j) % 101 for j in range(i % 16)))
    return total.numerator % 97 + len(table)


class HostSpeed:
    """Calibration units timed in one loop, and the scale they give."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._owed = 0.0

    def after(self, busy_s: float):
        """Run the calibration owed for ``busy_s`` seconds of operations."""
        clock = time.perf_counter
        self._owed += SHARE * busy_s
        while self._owed > 0.0:
            begin = clock()
            unit()
            duration = clock() - begin
            self.starts.append(begin)
            self.durations.append(duration)
            self._owed -= duration

    def _side(self, lo_s: float, hi_s: float) -> list:
        """[median unit time between lo_s and hi_s], or [] if none ran."""
        lo = bisect.bisect_left(self.starts, lo_s)
        hi = bisect.bisect_left(self.starts, hi_s)
        return [statistics.median(self.durations[lo:hi])] if hi > lo else []

    def scale(self, begin: float, end: float) -> float:
        """REFERENCE_S over the unit time around the interval; the caller
        has run ``after`` for it, so there are units after it."""
        sides = (self._side(begin - WINDOW_S, begin) +
                 self._side(end, end + WINDOW_S))
        return REFERENCE_S / statistics.fmean(sides)

    def median_unit_s(self) -> float:
        return statistics.median(self.durations)
