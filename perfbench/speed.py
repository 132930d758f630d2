"""The machine's speed during a run, from a fixed reference computation.

On the 2-core VM where it was built, other work shares the cores: on untouched code
the same operation takes anywhere from 1x to 2.7x its best time, and 20 s
stretches of a run differ by 20 %. Raw times therefore move with the
neighbours. The benchmark interleaves a fixed reference computation with
the operations it times and reports every time scaled to the speed at
which the reference takes REFERENCE_S: the scaled value is the measured
time multiplied by REFERENCE_S / (reference time measured around it).
The reference is small-matrix numpy and interpreter work, the same mix
as the package's own.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0025        # one chunk on this machine at its usual speed
PROBE_INTERVAL_S = 0.05     # a chunk runs every 50 ms of wall time
WINDOW_S = 1.0              # chunks within this distance of an operation rate it

_A = np.array([[2.0, 0.3, -0.1, 0.2], [0.3, 1.5, 0.4, 0.0],
               [-0.1, 0.4, 1.1, 0.25], [0.2, 0.0, 0.25, 0.7]], dtype=complex)
_OPS = np.array([np.kron(_A[:2, :2], _A[2:, 2:])] * 36)


def reference_chunk():
    """A fixed amount of work of about 2.5 ms; returns its duration."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(96):
        w = np.linalg.eigvalsh(_A + k * 1e-3)
        p = np.einsum("kij,ji->k", _OPS, _A).real
        acc += float(w[0]) + float(np.log(np.clip(p, 1e-12, None)).sum())
        acc += sum(x * x for x in range(60))
    if acc != acc:     # keeps the result alive
        raise ArithmeticError("reference computation produced NaN")
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs `reference_chunk` from a SIGALRM handler every PROBE_INTERVAL_S.

    `excluded_wall` and `excluded_cpu` add up the time the chunks took, so
    that callers can take it out of what they time.
    """

    def __init__(self):
        self.times = []          # midpoint of each chunk
        self.durations = []
        self.excluded_wall = 0.0
        self.excluded_cpu = 0.0

    def _tick(self, signum, frame):
        c0 = time.process_time()
        t0 = time.perf_counter()
        d = reference_chunk()
        self.times.append(t0 + d / 2)
        self.durations.append(d)
        self.excluded_wall += time.perf_counter() - t0
        self.excluded_cpu += time.process_time() - c0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start, end):
        """Reference time around [start, end] over REFERENCE_S (1 = usual speed)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.durations[lo:hi] or self.durations
        return statistics.fmean(window) / REFERENCE_S


def sample_slowdown(chunks=20):
    """Slowdown measured right now, from the median of a few chunks."""
    return statistics.median(reference_chunk() for _ in range(chunks)) / REFERENCE_S
