"""Host-speed probe: a fixed snippet timed at every tick of a run.

The shared hosts this benchmark runs on change speed by up to 2x within
minutes, as other tenants come and go, and a whole 30 s measurement can
sit in a slow phase.  No statistic over one run removes that, so every
cold run also times this fixed snippet -- benchmark code, not program
code -- at every tick, interleaved with the program's own work.  The
mean snippet time over ``REF_S`` is the host's slowdown during exactly
that run; dividing the run's times by it gives *reference-host
seconds*, the time the run would take at the reference speed.

On the 2-vCPU host the bounds were set on, this cut the spread of one
cold run of paper-t9-random-n8 from a coefficient of variation of 14-15%
to about 4% (14 and 16 back-to-back runs).
"""

from __future__ import annotations

import statistics
from time import perf_counter as clock

import numpy as np

#: Snippet seconds at the reference speed: interleaved with the paper
#: cells in a fast phase of the host the bounds were set on.  A
#: constant, so figures compare across runs and commits.
REF_S = 50e-6

_ARRAY = np.arange(512)


def _work() -> None:
    d = {}
    for i in range(200):
        key = (i & 63, i >> 3)
        d[key] = (key, i)
    _ARRAY[np.flatnonzero(_ARRAY % 3 == 0)].sum()


def snippet() -> float:
    """Seconds one warm pass of a fixed mix of dict/tuple and numpy work
    took.  The first pass refills the caches the program's own work
    evicted, so the timed one measures the CPU, not the program's
    memory footprint."""
    _work()
    t0 = clock()
    _work()
    return clock() - t0


class Ticks:
    """Host-speed samples and tick marks of one run."""

    def __init__(self):
        self.samples: list[float] = []
        #: Seconds spent sampling, to take out of the run's time.
        self.overhead = 0.0
        #: ``(time, overhead so far, samples so far)`` at every tick.
        self.marks: list[tuple[float, float, int]] = []

    def sample(self) -> None:
        t0 = clock()
        self.samples.append(snippet())
        self.overhead += clock() - t0

    def mark(self) -> None:
        self.marks.append((clock(), self.overhead, len(self.samples)))

    def __len__(self) -> int:
        return len(self.marks)

    def intervals_ms(self, near: int = 9) -> list[float]:
        """Program work between successive ticks, in reference-host ms.

        Each interval is divided by the host factor of the samples taken
        during it, widened to the ``near`` samples around it when fewer
        were, so a slow phase inside a run is taken out of the ticks it
        slowed and not spread over the whole run.
        """
        s = self.samples
        out = []
        for (a, oa, na), (b, ob, nb) in zip(self.marks, self.marks[1:]):
            lo, hi = na, nb
            while hi - lo < near and (lo > 0 or hi < len(s)):
                lo, hi = max(0, lo - 1), min(len(s), hi + 1)
            work = (b - a) - (ob - oa)
            out.append(1e3 * work * REF_S / statistics.fmean(s[lo:hi]))
        return out

    def factor(self) -> float:
        """Host slowdown over the reference speed (> 1: slower)."""
        return statistics.fmean(self.samples) / REF_S
