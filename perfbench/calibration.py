"""The machine-speed reference that the timing metrics are scaled by.

On a shared machine the speed of a core drifts by 10% to 50%, over
seconds to minutes, with the load of other tenants; a slow phase that
lasts a whole run moves even the fastest of its passes.  So the worker
times, interleaved with the operations, a fixed kernel that is not part
of opball: a few small complex LAPACK calls through numpy and a short
interpreter loop, the same mix the program's operations spend their time
in.  Each timed execution of an operation is scaled by the machine's
speed around it, the fastest kernel run within ``WINDOW_S`` of it, to
the time it would take where the kernel takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / (fastest kernel run near the execution)

and an operation is scored by its fastest scaled execution.  A change to
opball moves the scaled figures as it moves the measured ones, since the
kernel runs none of it.

The measured (unscaled) figures and the kernel's times are kept in the
run's result file under ``perfbench/out/``.
"""

from __future__ import annotations

import math
import time

import numpy as np

# the kernel's fastest time on an unloaded core of the 2-CPU machine the
# README's figures come from (Python 3, numpy with OpenBLAS, one thread)
NOMINAL_S = 1.2e-4
# share of the operations' time spent on the kernel
SHARE = 0.1
# kernel runs before the first operation
WARM_UP = 50
# an execution is scaled by the fastest kernel run that started within
# this many seconds before its start or after its end
WINDOW_S = 0.1

_A = (np.random.default_rng(20081111).standard_normal((4, 3))
      + 1j * np.random.default_rng(11).standard_normal((4, 3))) / 4


def kernel() -> float:
    """Fixed work that does not touch opball; returns its checksum."""
    a = _A
    h = a.conj().T @ a + np.eye(3)
    acc = 0.0
    for _ in range(4):
        s = np.linalg.svd(a, compute_uv=False)
        w, _v = np.linalg.eigh(h)
        x = np.linalg.solve(h, a.conj().T)
        acc += float(s[0] + w[-1] + abs(x[0, 0]))
    for k in range(400):
        acc += k * 1e-9
    return acc


def _timed_kernel():
    t0 = time.perf_counter()
    kernel()
    return t0, time.perf_counter() - t0


class Calibrator:
    """Runs the kernel after the operations, ``SHARE`` of their time, and
    records the times of both."""

    def __init__(self):
        for _ in range(WARM_UP):  # first calls allocate and load LAPACK
            _timed_kernel()
        self._debt = 0.0
        self.kernel_t, self.kernel_dt = [], []
        self.executions = []  # (op index, start, seconds)

    def pay(self, op: int, t0: float, dt: float):
        """Records an execution of operation ``op`` and runs the kernel for
        its share of it."""
        self.executions.append((op, t0, dt))
        self._debt += SHARE * dt
        while self._debt > 0:
            t, k = _timed_kernel()
            self._debt -= k
            self.kernel_t.append(t)
            self.kernel_dt.append(k)

    def scaled_best(self, n_ops: int) -> list:
        """Each operation's fastest execution, scaled to nominal speed."""
        kt, kdt = np.asarray(self.kernel_t), np.asarray(self.kernel_dt)
        best = [math.inf] * n_ops
        for op, t0, dt in self.executions:
            lo, hi = np.searchsorted(kt, (t0 - WINDOW_S, t0 + dt + WINDOW_S))
            # an empty window takes the next run after it, or the last run
            lo = min(lo, kt.size - 1)
            near = kdt[lo:max(hi, lo + 1)].min()
            best[op] = min(best[op], dt * NOMINAL_S / near)
        return best

    def summary(self) -> dict:
        dt = np.asarray(self.kernel_dt)
        return {"kernel_best_s": float(dt.min()),
                "kernel_median_s": float(np.median(dt)),
                "kernel_samples": int(dt.size), "kernel_total_s": float(dt.sum()),
                "nominal_s": NOMINAL_S, "window_s": WINDOW_S}
