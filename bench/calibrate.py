"""Host-speed calibration kernel.

On a shared virtual machine with 2 vCPUs (Intel Xeon, 2.0 GHz), the CPU's
speed changed by up to 2x within seconds.  Over 90 s of one repeated Jacobi
solve, the medians of blocks of 20 calls ranged over 0.66-1.28 of the
overall median; their ratios to this kernel, timed next to each call,
ranged over only 0.97-1.10.  So the benchmark times this kernel during and
around each call and reports the call's time scaled to a host on which the
kernel takes ``REFERENCE_S``.

The kernel does what the program mostly does -- a Python loop over small
numpy row and column updates -- and uses no ``spexcess`` code, so a change to
the program cannot change it.
"""

import time

import numpy as np

# about the kernel's time on an unloaded vCPU of that machine
REFERENCE_S = 0.003
_ROTATIONS = 200
_SAMPLES = 3


def _rotations() -> float:
    a = np.arange(64 * 64, dtype=float).reshape(64, 64) / 4096.0
    t0 = time.perf_counter()
    for k in range(_ROTATIONS):
        p, q = k % 63, (k * 7 + 1) % 64
        cp, cq = a[:, p].copy(), a[:, q].copy()
        a[:, p] = 0.6 * cp - 0.8 * cq
        a[:, q] = 0.8 * cp + 0.6 * cq
        rp, rq = a[p, :].copy(), a[q, :].copy()
        a[p, :] = 0.6 * rp - 0.8 * rq
        a[q, :] = 0.8 * rp + 0.6 * rq
    return time.perf_counter() - t0


def kernel_s() -> float:
    """Fastest of a few kernel runs, in seconds (about 10 ms in all)."""
    return min(_rotations() for _ in range(_SAMPLES))


def scaled(seconds: float, kernel: float) -> float:
    """``seconds`` on the reference host, given the kernel's time meanwhile."""
    return seconds * REFERENCE_S / kernel
