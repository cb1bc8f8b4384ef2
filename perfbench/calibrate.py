"""Calibrated seconds: timings corrected for how fast the CPU ran meanwhile.

On a shared two-core virtual machine the speed one process gets drifts by
tens of percent within seconds, at times by a factor of two, and the two
cores drift independently. Fixed kernels, timed in the same process on the
same core right before and after each call into the program, follow that
drift (see README.md for the figures).

A calibrated second is a measured second times a kernel's reference time
over its mean time at the two ends of the interval, i.e. a second on a
machine where the kernel takes its reference time. Two kernels cover the
program's two kinds of work, because each tracks its own kind best:

- "python": interpreter-bound work like dependent rounding, the debt
  scheduler and CSV writing; generator construction from a seed, tiny numpy
  draws, dict and sort work. The cyclic garbage collector is off while it
  runs, so the live heap does not change its time.
- "numpy": array-bound work like the exact extension and the simplex; a
  probability product over a 2^15-row subset table and rank-one updates of
  a 17 x 6500 tableau.
"""
from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

REPEATS = 2
# a point taken less than this long after the previous one reuses it
REUSE_S = 0.05

_N = 15
_MASKS = (np.arange(1 << _N, dtype=np.int64)[:, None] >> np.arange(_N)) & 1 > 0
_TABLE = np.linspace(0.0, 1.0, 1 << _N)
_TABLEAU = np.linspace(-1.0, 1.0, 17 * 6500).reshape(17, 6500)


def python_kernel() -> float:
    acc = 0.0
    enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(400):
            rng = np.random.default_rng(i)
            for _ in range(4):
                acc += float(rng.random(16).sum())
            acc += len(sorted({j: j * 2 for j in range(12)}))
    finally:
        if enabled:
            gc.enable()
    return acc


def numpy_kernel() -> float:
    acc = 0.0
    for shift in (0.3, 0.31):
        y = np.full(_N, shift)
        acc += float(np.prod(np.where(_MASKS, y, 1.0 - y), axis=1) @ _TABLE)
    t = _TABLEAU.copy()
    for r in range(12):
        t -= 1e-3 * np.outer(t[:, r], t[r])
    return acc + float(t[0, 0])


# kernel and its median time on the reference machine (see README.md)
KERNELS = {"python": (python_kernel, 0.0135), "numpy": (numpy_kernel, 0.012)}


class Calibration:
    """Kernel times ("points") taken between the program's calls."""

    def __init__(self):
        self.points: dict[str, list[float]] = {kind: [] for kind in KERNELS}
        self.spent = 0.0  # seconds spent in the kernels, to take off spans
        self._last = -1.0

    def point(self) -> int:
        """Take a point (or reuse one just taken); return its index."""
        taken = len(self.points["python"])
        if taken and perf_counter() - self._last < REUSE_S:
            return taken - 1
        started = perf_counter()
        for kind, (kernel, _) in KERNELS.items():
            reps = []
            for _ in range(REPEATS):
                t0 = perf_counter()
                kernel()
                reps.append(perf_counter() - t0)
            self.points[kind].append(statistics.median(reps))
        self._last = perf_counter()
        self.spent += self._last - started
        return taken

    def factor(self, kind: str, first: int = 0, last: int | None = None) -> float:
        """Multiply seconds measured between points first..last by this."""
        stop = len(self.points[kind]) if last is None else last + 1
        return KERNELS[kind][1] / statistics.fmean(self.points[kind][first:stop])
