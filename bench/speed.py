"""Machine-speed reference for timings on a shared, drifting machine.

On the 2-core VM this benchmark was built on, the same code runs up to 1.6
times slower or faster from one minute to the next, because other tenants
contend for the core; steal time stays near 0 and thread CPU time tracks
wall time, so the process cannot see the cause. A fixed reference
computation, timed right before and after each round of operations, slows
down with the work: over 70 one-second windows of ``channel_stream`` the two
correlated at r = 0.986, and the coefficient of variation fell from 18% for
the operation times to 3.8% for their ratio to the reference.

The reference is benchmark code plus numpy only, never the program, so no
change to the program can move it. Its mix follows the workloads: small
numpy calls (a 4x4 ``eigh``), float formatting and one vectorised pass.
``factor`` converts a time measured next to it into the time the same work
takes when the reference takes ``REFERENCE_NS``.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

import numpy as np

REFERENCE_NS = 2_500_000   # a typical time of the reference on that VM

_MATRIX = np.array([[2.0, 0.5, 0.0, 0.1], [0.5, 1.0, 0.3, 0.0],
                    [0.0, 0.3, -1.0, 0.2], [0.1, 0.0, 0.2, 0.5]])
_VECTOR = np.linspace(0.0, 1.0, 50_000)


def reference() -> float:
    acc = 0.0
    for i in range(60):
        w, _ = np.linalg.eigh(_MATRIX * (1.0 + i))
        acc += float(w[0]) + float(np.max(np.abs(_MATRIX[i % 4])))
        acc += len(",".join(format(float(v), ".17g") for v in w))
    return acc + float(np.sum(np.sqrt(_VECTOR * 1.5)))


class Speed:
    """Times the reference next to measured work; keeps every sample."""

    def __init__(self):
        self.samples_ns: list[int] = []

    def sample(self) -> int:
        gc.disable()     # a collection triggered by the program's garbage is not the machine
        try:
            t0 = perf_counter_ns()
            reference()
            dt = perf_counter_ns() - t0
        finally:
            gc.enable()
        self.samples_ns.append(dt)
        return dt

    @staticmethod
    def factor(before_ns: int, after_ns: int) -> float:
        """Scale for times measured between two reference samples."""
        return 2.0 * REFERENCE_NS / (before_ns + after_ns)
