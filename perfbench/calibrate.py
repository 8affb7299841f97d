"""Host-speed calibration for the benchmark's timings.

On a shared host the speed available to one process drifts by up to twofold
over seconds to minutes, which swamps the differences a benchmark has to
resolve. A fixed kernel, independent of ohmlab so that no program change
can move it, runs before and after every timed step; a step's time is
scaled by REFERENCE_S over the kernel time measured around it. The result is
reference-speed seconds: seconds on a host where the kernel takes
REFERENCE_S. Raw times are reported alongside.

The kernel mixes what the workloads spend their time on: Jacobi-preconditioned
conjugate gradient on a sparse Laplacian with n = 1000 (small numpy vector
operations, sparse products, Python-level loop overhead) and vectorized bit
arithmetic over a block of 3 * 2^16 masks (as in exact cut enumeration).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 0.045  # kernel wall (and CPU) time that defines one reference second
_N = 1000
_PCG_REPEATS = 18
_PCG_ITERATIONS = 60


class Calibration:
    """The fixed kernel; build once per process, then call measure()."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        ring = np.arange(_N)
        tails = np.concatenate([ring, rng.integers(0, _N, 2 * _N)])
        heads = np.concatenate([np.roll(ring, 1), rng.integers(0, _N, 2 * _N)])
        keep = tails != heads
        tails, heads = tails[keep], heads[keep]
        w = np.ones(tails.size)
        self.lap = sp.coo_array(
            (np.concatenate([w, w, -w, -w]),
             (np.concatenate([tails, heads, tails, heads]),
              np.concatenate([tails, heads, heads, tails]))), shape=(_N, _N)).tocsr()
        self.deg = self.lap.diagonal()
        self.b = np.zeros(_N)
        self.b[0], self.b[_N // 2] = 1.0, -1.0
        self.masks = np.arange(3 << 16, dtype=np.int64)

    def _kernel(self) -> None:
        acc = np.zeros(self.masks.size)
        for v in range(16):
            acc += ((self.masks >> v) & 1) * (v + 1.0)
        for _ in range(_PCG_REPEATS):
            x = np.zeros(_N)
            r = self.b.copy()
            z = r / self.deg
            z -= z.mean()
            p = z.copy()
            rz = float(r @ z)
            for _ in range(_PCG_ITERATIONS):
                lp = self.lap @ p
                alpha = rz / float(p @ lp)
                x += alpha * p
                r -= alpha * lp
                x -= x.mean()
                r -= r.mean()
                float(np.linalg.norm(r))
                z = r / self.deg
                z -= z.mean()
                rz_new = float(r @ z)
                p = z + (rz_new / rz) * p
                rz = rz_new

    def measure(self) -> tuple:
        """(wall, cpu) seconds of one kernel run."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self._kernel()
        return time.perf_counter() - wall0, time.process_time() - cpu0
