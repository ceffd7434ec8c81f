"""Paced time: seconds counted at the pace of a calibration kernel.

Other tenants of the host slow every process on this machine by 40 to 70 %
for seconds to minutes at a time.  The kernel below slows with them, so a
span of wall time ``w`` during which the kernel took ``k`` counts as
``w * KERNEL_REF_S / k`` paced seconds, which do not follow the neighbours.

The kernel does in small what a `pdmradial solve` round spends its time on,
with none of pdmradial's code: a Numerov-style recurrence over long-double
numpy arrays and an RK4-style update over a list of Python floats.  Each
call starts at another place in 64 KiB arrays, so it works from the caches
as a round does rather than from a few hot lines.  A change to the program
does not change the kernel, so it moves paced time as it moves wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# about the kernel's time in the quietest stretches of the machine the
# benchmark was tuned on, so that paced time there is about wall time
KERNEL_REF_S = 50e-6
CALIBRATE_EVERY_S = 0.025

_N = 4096
_C = np.linspace(1.0, 1.1, _N).astype(np.longdouble)
_D = np.linspace(2.0, 2.1, _N).astype(np.longdouble)
_R = np.zeros(_N, dtype=np.longdouble)
_F = [0.001 * i for i in range(_N)]
_HALF = np.longdouble(0.5)
_calls = 0


def _kernel(start: int) -> float:
    t0 = time.perf_counter()
    prev2 = prev = np.longdouble(1.0)
    for i in range(start + 2, start + 66):
        cur = (_D[i - 1] * prev - _C[i - 2] * prev2) / _C[i]
        _R[i] = cur
        prev2, prev = prev, cur * _HALF
    acc = 0.0
    for i in range(start, start + 64):
        g = _F[i]
        acc = acc + 0.5 * g * (acc + g) - acc * 0.25
    return time.perf_counter() - t0


def kernel_s(repeats: int = 2) -> float:
    """The fastest of ``repeats`` kernel runs, each at a new place."""
    global _calls
    best = float("inf")
    for _ in range(repeats):
        _calls += 1
        best = min(best, _kernel(97 * _calls % (_N - 128)))
    return best


def paced(wall_s: float, k_before: float, k_after: float) -> float:
    return wall_s * 2.0 * KERNEL_REF_S / (k_before + k_after)


class Pacer:
    """Times the kernel every CALIBRATE_EVERY_S of wall time from a SIGALRM
    handler, and at start() and stop(), and counts the work between two
    calibrations at the mean pace they show."""

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []  # start, end, kernel s
        self._busy = False

    def calibrate(self, signum=None, frame=None):
        if self._busy:  # a signal that arrives during a calibration
            return
        self._busy = True
        t0 = time.perf_counter()
        k = kernel_s()
        self.marks.append((t0, time.perf_counter(), k))
        self._busy = False

    def start(self):
        self.marks = []
        signal.signal(signal.SIGALRM, self.calibrate)
        self.calibrate()
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def mean_kernel_s(self) -> float:
        return sum(k for _, _, k in self.marks) / len(self.marks)

    def stop(self) -> tuple[float, float]:
        """Paced seconds and wall seconds of the work since start(); the
        calibrations' own time is left out of both."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.calibrate()
        total_paced = work = 0.0
        for (_, end, k0), (start, _, k1) in zip(self.marks, self.marks[1:]):
            work += start - end
            total_paced += paced(start - end, k0, k1)
        return total_paced, work
