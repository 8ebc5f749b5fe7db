"""Host-speed calibration for the gridspin benchmark.

The benchmark runs on a share of a host whose CPU speed moves by up to
about 40 % in phases of tens of seconds to minutes, and a fixed
pure-Python kernel slows at the same times as gridspin does.  So the
worker times the kernel (``measure``) at least once a second between
operations, before the first and after the last, and every time metric
is scaled to a fixed host speed:

    scaled seconds = measured seconds * REFERENCE_S / calibration seconds

where the calibration seconds are the median of the calibrations next
to the timed work (``around``): two on either side, so that one noisy
calibration does not move an operation.  The kernel is fixed benchmark
code, so a faster or slower gridspin still shows in full.

The kernel is integer row elimination on a list-of-lists matrix of a
few megabytes, like the program's Smith normal form.  Over five minutes
of n = 7 homology on a noisy host, its time explained the operations'
time with a log-log slope of 0.96 (correlation 0.86), and scaling cut
the spread of 36-s means from 27 % to 7 %.  Small compute-bound loops
(permutation sums, small dicts) swung twice as far as the program
(slope 0.5) and are not used.
"""
from __future__ import annotations

import statistics
import time

# About the median seconds of one kernel call on the baseline machine
# (0.085-0.127 s per run there, perfbench/README.md).  It only fixes the
# scale of the scaled seconds; changing it moves every baseline number.
REFERENCE_S = 0.100


def kernel(size: int = 360, pivots: int = 6) -> int:
    """The fixed calibration work; returns a checksum."""
    m = [[(i * 31 + j * 17) % 11 - 5 for j in range(size)] for i in range(size)]
    for i in range(pivots):
        piv = m[i]
        p = piv[i] or 1
        for j in range(i + 1, size):
            row = m[j]
            f = row[i]
            if f:
                m[j] = [(a * p - f * b) % 65521 for a, b in zip(row, piv)]
    return sum(m[-1])


def measure(calls: int = 1) -> float:
    """Median seconds of ``calls`` kernel calls made now."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calls_for(seconds: float) -> int:
    """Kernel calls per calibration next to operations of ``seconds``:
    about 4 % of the operation time, from one to three."""
    return max(1, min(3, round(0.04 * seconds / REFERENCE_S)))


def around(calibrations: list[float], after: int) -> list[float]:
    """The calibrations next to work done after the first ``after``
    calibrations: two on either side."""
    return calibrations[max(0, after - 2):after + 2]


def scale(seconds: float, calibrations: list[float]) -> float:
    """``seconds`` at the reference speed, given the calibrations next to
    the timed work."""
    return seconds * REFERENCE_S / statistics.median(calibrations)
