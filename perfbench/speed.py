"""Machine speed of the moment, from a fixed calibration kernel.

Shared machines change speed by up to 2x for tens of seconds at a time.
The benchmark times this kernel between ops and scales every wall time by
CAL_REF_S over the kernel time around it, giving "reference seconds": the
time the work would take on the reference machine (2 cores) uncontended.
The kernel uses no frozen_spectra code, so a change to the library cannot
move it.
"""

import statistics
import time

import numpy as np

CAL_REF_S = 0.9e-3  # kernel time on the reference machine, uncontended
CAL_REPS = 3
_INTS = [[(i * j) % 7 - 3 for j in range(16)] for i in range(16)]
_XS = np.linspace(0.0, 1.0, 4096) * (1 + 0.5j)


def _kernel() -> float:
    """Interpreter-bound integer loops, complex vector transcendentals, float formatting."""
    cols = list(zip(*_INTS))
    acc = sum(sum(x * y for x, y in zip(row, col)) for row in _INTS for col in cols)
    acc += float(np.abs(np.sum(np.sin(_XS * 7.0) * _XS)))
    return acc + len("".join(f"{v!r}," for v in _XS.real[:400]))


def kernel_seconds() -> float:
    """Median wall time of CAL_REPS kernel runs."""
    runs = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


class SpeedProbe:
    """Calibration samples (time taken, kernel seconds) of one process."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> int:
        kernel = kernel_seconds()
        self.samples.append((time.perf_counter(), kernel))
        return len(self.samples) - 1

    def since_last(self) -> float:
        return time.perf_counter() - self.samples[-1][0]

    def scale(self, i: int) -> float:
        """Reference seconds per wall second between samples i and i + 1."""
        return CAL_REF_S / statistics.fmean((self.samples[i][1], self.samples[i + 1][1]))
