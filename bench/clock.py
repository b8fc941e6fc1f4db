"""Timings scaled to a fixed machine speed.

On a shared machine, other load slows every timing by a factor that drifts
over seconds and can persist through a whole run, which medians cannot
remove.  A fixed kernel is timed at least every ``INTERVAL_S``; an
interval's timings are multiplied by ``NOMINAL_S`` over the mean kernel time
at its two ends.  The kernel holds no code of the package.  It builds a few
hundred small complex arrays and chains overlaps over them, the same mix of
small allocations and short numpy calls as the package's hot paths; of the
kernels tried, it tracked the workloads' slow-downs best.  A scaled timing
reads as the time the operation takes when the kernel takes ``NOMINAL_S``,
roughly the idle speed of the 2-core machine the reference figures in
README.md come from.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
NOMINAL_S = 2.0e-3
_REPEATS = 3
_ARRAYS = 600
_ANGLES = np.linspace(0.0, 1.0, 16)


def _kernel() -> float:
    states = [np.exp(1j * (_ANGLES * (i * 1e-3))).reshape(4, 4) for i in range(_ARRAYS)]
    return sum(abs(complex(np.vdot(a, b))) for a, b in zip(states, states[1:]))


class Clock:
    def __init__(self):
        self.samples: list[float] = []  # fastest of _REPEATS kernel runs, seconds
        self._last = float("-inf")

    def sample(self) -> int:
        """Time the kernel now; returns the sample's index."""
        best = float("inf")
        for _ in range(_REPEATS):
            start = perf_counter()
            _kernel()
            best = min(best, perf_counter() - start)
        self.samples.append(best)
        self._last = perf_counter()
        return len(self.samples) - 1

    def due(self) -> int:
        """Index of the sample that opens the current interval, taking a new one when due."""
        if perf_counter() - self._last >= INTERVAL_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor for a timing made after sample ``index`` and before the next one."""
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return NOMINAL_S / (0.5 * (self.samples[index] + after))
