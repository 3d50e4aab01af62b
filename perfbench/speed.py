"""Times at a fixed machine speed.

On a shared host the whole machine runs up to ~1.6 times slower for
seconds to minutes at a time (other tenants).  That moves a median of raw
times, or even the fastest of a run's samples, by more than the bound
between runs of the same code.  So every timed step of an untraced run,
a set-up, a CLI call or one library call inside a pass, sits between two
runs of calibrate(), fixed work written without dtseries; the step's time
times REFERENCE_CAL_S over the mean of the two is its time at the
reference speed.  A slow period slows the loop with the program and
cancels; a change to dtseries does not touch the loop and shows in full.
"""

from fractions import Fraction
from time import perf_counter

# calibrate()'s time on a 2-vCPU x86 VM with CPython 3.11, host quiet: the
# machine speed the time metrics are reported at
REFERENCE_CAL_S = 0.006


def calibrate():
    """Seconds for about 8 ms of the kinds of work dtseries does: small and
    big integers, fractions, allocation, sorting and hashing."""
    t0 = perf_counter()
    x = 0
    for j in range(12_000):
        x += j * j % 7
    a = [Fraction(i + 1, i + 2) for i in range(30)]
    [sum(a[i] * a[k - i] for i in range(k + 1)) for k in range(30)]
    p = [1] + [0] * 200  # partition numbers, which grow into big integers
    for k in range(1, 201):
        for j in range(k, 201):
            p[j] += p[j - k]
    keys = sorted((i * 7919) % 100_003 for i in range(12_000))
    {v: i for i, v in enumerate(keys)}
    return perf_counter() - t0


class Speed:
    """A chain of calibrations; `cal` holds every one, in order."""

    def __init__(self):
        self.cal = [calibrate()]

    def mark(self):
        """Calibrate now; returns how long that took."""
        self.cal.append(calibrate())
        return self.cal[-1]

    def scale(self, seconds):
        """`seconds` of a step that ended just now, at the reference speed."""
        self.mark()
        return seconds * 2 * REFERENCE_CAL_S / (self.cal[-2] + self.cal[-1])
