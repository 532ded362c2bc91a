"""Speed probe: how fast the machine runs while a pass runs.

On a machine shared with other tenants the same code can run 1.5x slower
for seconds to minutes at a time.  `Probe` interrupts the pass every
INTERVAL_S with SIGALRM and times one `unit()`, a fixed piece of work of
the same kind as hardyheat's inner loops (small numpy arrays driven from
Python).  The mean unit time over the pass measures the machine's speed
over the same interval, so a pass time divided by it no longer follows
the machine's slow spells; the time the probe itself took is subtracted
from the pass.
"""
from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.02

_X = np.linspace(0.0, 4.0, 24)
_W = np.full(24, 1.0 / 24)


def unit() -> float:
    """The fixed work of one probe sample (about 0.3-0.6 ms)."""
    acc = 0.0
    for i in range(100):
        y = np.exp(-_X * (1.0 + 1e-4 * i))
        acc += float(_W @ (y * y)) + math.sqrt(i + 1.0)
    return acc


class Probe:
    """Context manager timing `unit()` every INTERVAL_S of wall time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0        # wall time spent in the signal handler

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        unit()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_s(self) -> float:
        """Mean unit time; NaN when the pass ended before the first one."""
        return sum(self.samples) / len(self.samples) if self.samples \
            else math.nan
