"""Host speed, measured alongside the work it is used to correct.

On a shared host the speed of one CPU drifts by up to 1.7x over
seconds to minutes, so raw wall times of the same work spread too much
to compare.  :class:`SpeedProbe` interrupts the measured process every
``INTERVAL_S`` with ``SIGALRM`` and times a fixed pure-Python loop
(a calibration slice) on the same CPU, at the same moment.  A window of
work is then reported as the time it would take at the reference speed:
each stretch of work between two slices, less the slice, is scaled by
``REFERENCE_SLICE_S`` over that slice's time.  On a 2-vCPU VM this cut
the spread (interquartile range over median) of ten identical
``seuss_zipf`` runs from 20% of raw wall time to 4%.  The scaling uses
only the loop, which belongs to the benchmark, so a change to the
measured program moves the reported time and leaves the scale alone.
"""

from __future__ import annotations

import signal
import time
from typing import Dict, List, Tuple

CAL_ITERATIONS = 10_000
#: One calibration slice at the reference speed, a fixed scale: about
#: the fastest a slice runs on a 2-vCPU Intel Xeon (2.0 GHz) VM with
#: CPython 3.11, so times read close to that host's fast wall times.
REFERENCE_SLICE_S = 0.0015
INTERVAL_S = 0.05


def calibration_slice(iterations: int = CAL_ITERATIONS) -> float:
    """Seconds one fixed loop of dict stores and integer arithmetic takes."""
    started = time.monotonic()
    table: Dict[int, int] = {}
    total = 0
    for index in range(iterations):
        total += index * 7 % 13
        table[index & 1023] = total
    return time.monotonic() - started


class SpeedProbe:
    """Calibration slices taken every ``INTERVAL_S`` while the probe runs."""

    def __init__(self) -> None:
        #: (end time, duration) of every slice, in ``time.monotonic`` seconds.
        self.slices: List[Tuple[float, float]] = []

    def _tick(self, _signum=None, _frame=None) -> None:
        duration = calibration_slice()
        self.slices.append((time.monotonic(), duration))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._tick()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def normalize(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work done between ``start`` and ``end``.

        Each stretch of work between two slices is scaled by the slice
        that ends it; the stretch after the last slice, by the last one.
        """
        inside = [entry for entry in self.slices if start < entry[0] <= end]
        if not inside:
            # A window shorter than one interval: use the nearest slice.
            nearest = min(self.slices, key=lambda entry: abs(entry[0] - end))
            return (end - start) * REFERENCE_SLICE_S / nearest[1]
        total = 0.0
        last = start
        for stamp, duration in inside:
            total += (stamp - last - duration) / duration
            last = stamp
        total += (end - last) / inside[-1][1]
        return total * REFERENCE_SLICE_S
