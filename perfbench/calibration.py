"""Timings scaled to a reference machine speed.

The benchmark shares a small machine with other tenants whose load
changes its speed by tens of percent over minutes, well beyond any
bound worth setting.  So every timed segment is bracketed by fixed
reference kernels, and the segment's time is scaled by the kernels'
reference time over the mean of the kernel times measured around it.
A change of the program moves the scaled time exactly as it moves the
raw one; a slower machine slows the segment and the kernels alike.

Three kernels cover the kinds of work the program does, because the
machine's load slows them by very different amounts: "array" is
interpreter arithmetic plus small- and mid-size numpy integer
arithmetic (the enumerator and the batch classifier), "linalg" is
numpy's small dense linear algebra on 3 x 3 matrices (the
factorization, the per-form eigensolves, the per-sample rotations),
and "scipy" is scipy.linalg.logm and expm on 3 x 3 matrices (the
probes).  The last goes through threaded BLAS and slows by up to 60x
when another process holds a core, so only the workload whose time it
dominates uses it.  Each workload names the kernels that match its mix.

Blind spot: the kernels run in the benchmark's own process, after
qfsectors is imported.  A change to a process-wide setting, such as
the BLAS or OpenMP thread count, moves the kernels as it moves the
program, and the scaling cancels its effect.  Judge such a change on
raw_wall_s, with runs of the two commits alternating.  Kernels timed in
a helper process that never imports qfsectors would avoid this, but
they run out of step with the program's BLAS threads and tracked the
machine poorly: over five seeds the wavefront-sweep spread rose from
about 0.06 to 0.12-0.16.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

# each kernel's time on this 2-core machine when it is quiet; scaled
# times are "seconds at that speed"
REFERENCE_S = {"array": 0.027, "linalg": 0.015, "scipy": 0.016}
_MATS = [np.eye(3) + 0.01 * m for m in np.random.default_rng(0).standard_normal((40, 3, 3))]


def _array() -> None:
    s = 0
    for i in range(150_000):
        s += (i * i) % 7
    a = np.arange(64, dtype=np.int64)
    for _ in range(1500):
        a = (a * 3 + 1) % 1009
    b = np.arange(200_000, dtype=np.int64)
    for _ in range(10):
        b = (b * b + 3) % 10007


def _linalg() -> None:
    for _ in range(8):
        for m in _MATS:
            np.linalg.svd(m)
            np.linalg.qr(m)
            np.linalg.det(m)
            np.linalg.eigh(m + m.T)


def _scipy() -> None:
    for m in _MATS[:12]:
        scipy.linalg.logm(m)
        scipy.linalg.expm(m)


_KERNELS = {"array": _array, "linalg": _linalg, "scipy": _scipy}


def kernel_s(parts) -> float:
    t0 = time.perf_counter()
    for part in parts:
        _KERNELS[part]()
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float, parts) -> float:
    reference = sum(REFERENCE_S[p] for p in parts)
    return seconds * reference / ((before + after) / 2.0)


def play(segments, parts) -> tuple[list, float, list[float]]:
    """Runs a round given as a generator of op segments.

    Returns the ops, the round's scaled time and the kernel times.
    """
    ops, scaled, kernels = [], 0.0, [kernel_s(parts)]
    for segment in segments:
        kernels.append(kernel_s(parts))
        ops += segment
        scaled += scale(sum(op.elapsed for op in segment), kernels[-2], kernels[-1], parts)
    return ops, scaled, kernels
