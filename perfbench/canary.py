"""A fixed reference task that measures how fast the host is right now.

On a shared host the speed of every instruction drifts with what the
neighbours do: on a 2-vCPU VM the same code took from 1 to 4 times as
long from one minute to the next, for 1-second pumps and 20 us queries
alike.  The benchmark runs a short slice of this task before and
after every window of a workload's calls and reports every timing in
*reference-host* units::

    reported = measured * REFERENCE_S / (median canary unit around it)

so a run on a slow phase of the host and a run on a fast one report
nearly the same figures, while a change to the program still moves them
one for one: the canary imports nothing from the program.

The unit mixes what the workloads do -- NumPy on small arrays (about
60 % of it), one pass over an 8 MiB array, a short interpreted loop and
a few system calls -- so that its slowdown follows theirs.  The mix
leans on NumPy because, on a busy phase of a 2-vCPU VM, the workloads
ran 2.0-2.4 times as long as on an idle one, NumPy and the memory pass
2.2 times, the interpreted loop 2.5 times and ``stat`` 3.4 times; a
unit that was 40 % interpreted loop over-corrected by 15-20 %.

It leaves out waking another thread: on an idle 2-vCPU VM, 64 socket
round trips to a second thread took 0.3 ms in one run and 0.7 ms in the
next, depending on where the scheduler put the thread, not on the
host's speed.  Each slice starts
with one unit it does not time, to refill the caches the workload's
window evicted, and its median ignores a unit that the host paused
outright.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: A round figure near the median time of one :func:`unit` on the
#: reference host (an idle 2-vCPU x86-64 VM, CPython 3 with NumPy: an
#: estimated 0.9 ms), so that there the reported figures are close to
#: the measured ones.  Only their scale depends on it.
REFERENCE_S = 1.0e-3

#: Timed units per slice.
UNITS = 3

_rng = np.random.default_rng(20_000)
_small = _rng.random(4096)
_keys = np.sort(_rng.random(4096))
_large = _rng.random(1 << 20)  # 8 MiB
_table = {k: float(k) for k in range(64)}


def unit() -> float:
    """One unit of fixed work; returns a value so nothing is optimised away."""
    acc = 0.0
    for k in range(1500):
        acc += _table[k & 63] * 0.5
        if k % 7 == 0:
            acc -= len(str(k))
    x = _small
    for _ in range(100):
        x = np.sqrt(x * _small + 1.0)
    acc += float(np.searchsorted(_keys, x).sum())
    acc += float(np.sort(_small)[-1])
    acc += float(_large.sum())
    for _ in range(8):
        acc += os.stat(".").st_nlink
    return acc


class HostClock:
    """Canary slices around windows of measured work.

    Call :meth:`tick` before the first window and after every window;
    :meth:`factor` of window ``w`` is the median unit of the slices on
    either side of it over :data:`REFERENCE_S` -- how much slower than
    the reference host the host ran while window ``w`` was measured.
    """

    def __init__(self) -> None:
        self.slices: list[list[float]] = []

    def tick(self) -> None:
        unit()
        times = []
        for _ in range(UNITS):
            t0 = time.perf_counter()
            unit()
            times.append(time.perf_counter() - t0)
        self.slices.append(times)

    def factor(self, window: int) -> float:
        units = self.slices[window] + self.slices[window + 1]
        return statistics.median(units) / REFERENCE_S

    def overall(self) -> float:
        """The median unit of every slice over :data:`REFERENCE_S`."""
        return statistics.median(u for s in self.slices for u in s) / REFERENCE_S
