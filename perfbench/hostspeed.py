"""Host speed, sampled by a fixed reference kernel between timed units.

On a shared virtual machine the speed of one vCPU changes with what runs on
the cores it shares. On the 2-vCPU Xeon host this benchmark was written on,
a single-threaded Python loop ran at full speed for a while, then up to 1.9x
slower for stretches of several seconds, and a 15 s run could miss full
speed for all but a few seconds. A timing taken raw then measures the
neighbours as much as the solver.

So every timed unit (a solve, a loop step, a set-up) is bracketed by runs of
a fixed kernel that is independent of the package: small dense products and
Python-level slicing, the same mix as one solver stage. The slowdown over an
interval is the mean kernel time from the run just before it to the run
just after it, divided by REFERENCE_S, the kernel's time at that host's full
speed. A unit's time divided by its slowdown is its time at the reference
speed; that is what every timing metric reports. Dividing by a constant,
not by the fastest kernel run of the same run, keeps a run that never saw
full speed comparable with one that did. On another host the figures are
scaled by that host's speed relative to the kernel, the same on both sides
of a comparison. The raw times are kept in the result details.
"""

from array import array
from time import perf_counter

import numpy as np

# Kernel steps per sample: about 0.3 ms at full speed, small next to a solve
# and long enough to time with perf_counter.
KERNEL_STEPS = 60
# Kernel time at full speed on the 2-vCPU Xeon host, seconds (the fastest
# samples there took 0.27 to 0.30 ms).
REFERENCE_S = 0.0003


class HostSpeed:
    """Samples the reference kernel and turns raw intervals into slowdowns."""

    def __init__(self):
        a = np.random.default_rng(0).random((6, 6))
        self._a = a / np.abs(np.linalg.eigvals(a)).max()
        self.start = array("d")
        self.duration = array("d")

    def sample(self):
        """Run the kernel once and record when it started and how long it took."""
        a, v = self._a, np.ones(6)
        t0 = perf_counter()
        for _ in range(KERNEL_STEPS):
            v = a @ v
            v[:3] -= 0.5 * v[3:]
            v *= 1.0 / np.abs(v).max()
        self.duration.append(perf_counter() - t0)
        self.start.append(t0)

    def slowdown(self, t0, t1):
        """Slowdown over each interval [t0, t1] (arrays of perf_counter stamps).

        The mean duration of the kernel runs from the last one started before
        t0 to the first one started after t1, over REFERENCE_S. Intervals
        must be bracketed: a sample before the first and after the last.
        """
        start = np.frombuffer(self.start)
        duration = np.frombuffer(self.duration)
        before = np.searchsorted(start, np.asarray(t0, dtype=float), side="right") - 1
        after = np.searchsorted(start, np.asarray(t1, dtype=float), side="left")
        if np.any(before < 0) or np.any(after >= start.size):
            raise ValueError("interval not bracketed by host-speed samples")
        total = np.concatenate([[0.0], np.cumsum(duration)])
        mean = (total[after + 1] - total[before]) / (after - before + 1)
        return mean / REFERENCE_S
