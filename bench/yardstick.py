"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same cold pass runs up to 1.8x slower for minutes at a
time, because other tenants load the same cores; over windows of 20 cold
passes there, raw pass medians spread by 26% and sums of per-sample minima
by 15% (quartile distance over median).  So every untraced pass also times
short bursts of this kernel before, between and after its timed calls
(outside their timings), and ``run.py`` reports times in units of the
burst: a pass time is scaled by ``NOMINAL_BURST_S / mean burst time``.
A change to ``signed_spectra`` moves the pass time but not the burst, so it
shows at full size; a slower machine moves both.

The kernel mixes what the workloads do: Jacobi-style rotations of a 6x6
matrix through small numpy slices with Python floats and a dict loop (like
``eigen_decomposition`` and the bound registry), and uint32 bit arithmetic
over 2^13 switching masks with an int64 quadratic form (like the exhaustive
switching kernels).  It never touches ``signed_spectra``.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: A burst runs at most this often during a timed pass.
BURST_EVERY_S = 0.25
#: Scale of reported times, a fixed constant: one burst took 16 to 31 ms on
#: a shared 2-vCPU Xeon VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one thread).
NOMINAL_BURST_S = 0.022

_ROTATION_REPS = 100
_MASK_REPS = 2
_A = np.array(
    [[0, 1, -1, 0, 1, 0], [1, 0, 1, 1, 0, -1], [-1, 1, 0, 1, -1, 0],
     [0, 1, 1, 0, 1, 1], [1, 0, -1, 1, 0, 1], [0, -1, 0, 1, 1, 0]],
    dtype=float,
)
_US = np.arange(24, dtype=np.uint32) % 15
_VS = (np.arange(24, dtype=np.uint32) * 7 + 3) % 16
_POWER = np.arange(256, dtype=np.int64).reshape(16, 16) % 5


def _rotations() -> None:
    work, n = _A.copy(), _A.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = work[p, q]
            if apq == 0.0:
                continue
            theta = (work[q, q] - work[p, p]) / (2.0 * apq)
            t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            col_p, col_q = work[:, p].copy(), work[:, q].copy()
            work[:, p] = c * col_p - s * col_q
            work[:, q] = s * col_p + c * col_q
    tally: dict = {}
    for i in range(150):
        key = (i % 7, i % 5)
        tally[key] = tally.get(key, 0) + i


def _masks() -> None:
    masks = np.arange(0, 1 << 13, dtype=np.uint32) << np.uint32(1)
    count = np.zeros(masks.shape, dtype=np.uint32)
    for u, v in zip(_US, _VS):
        count += ((masks >> u) ^ (masks >> v)) & np.uint32(1)
    signs = np.ones((masks.shape[0], 16), dtype=np.int64)
    for v in range(1, 16):
        signs[:, v] -= 2 * (((masks >> np.uint32(v)) & np.uint32(1)).astype(np.int64))
    int(np.einsum("ij,ij->i", signs @ _POWER, signs).max() + count.min())


class Yardstick:
    """Times bursts of the kernel; ``spent_s`` is all time taken by them."""

    def __init__(self) -> None:
        self.bursts: list[float] = []
        self.spent_s = 0.0
        self._last = time.perf_counter()

    def burst(self) -> None:
        clock = time.perf_counter
        start = clock()
        for _ in range(_ROTATION_REPS):
            _rotations()
        for _ in range(_MASK_REPS):
            _masks()
        end = clock()
        self.bursts.append(end - start)
        self.spent_s += end - start
        self._last = end

    def between_calls(self) -> float:
        """A burst if one is due; returns the seconds it took (0 if none)."""
        if time.perf_counter() - self._last < BURST_EVERY_S:
            return 0.0
        before = self.spent_s
        self.burst()
        return self.spent_s - before

    def mean_s(self) -> float:
        return sum(self.bursts) / len(self.bursts)
