"""Machine-speed probe: a fixed numpy kernel timed at regular intervals.

The host this benchmark runs on is shared, and its core speed changes for
minutes at a time; a pass of the same code took up to a third longer in a
slow stretch than in a fast one. ``SpeedProbe`` runs ``kernel`` (a fixed mix
of the work mml does: tiny dense solves, inverse-CDF sampling over a
(8192, 16) block, an interpreter loop and a 200x200 solve; nothing from mml)
from a SIGALRM handler every ``every`` seconds of wall time, including while
a long op runs, and keeps how long each run took. Dividing a pass's time by
the probe's mean kernel time over that pass, and multiplying by
``REFERENCE_KERNEL_S``, gives the pass time at a fixed reference speed: a
slow stretch stretches both and cancels. The time spent in the handler is
subtracted from the ops it interrupts.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Median kernel time on the machine the bounds were set on (2 vCPUs of a
# shared x86-64 host, numpy 2.4 with one OpenBLAS thread). It only scales
# the reported seconds; any fixed value would do.
REFERENCE_KERNEL_S = 0.02

_rng = np.random.default_rng(20010311)
_SMALL = [np.eye(k) - 0.05 * _rng.random((k, k)) for k in (8, 11, 14)]
_SMALL_RHS = [np.ones(k) for k in (8, 11, 14)]
_CUM = np.cumsum(_rng.dirichlet(np.ones(16)))
_BIG = np.eye(200) - _rng.random((200, 200)) / 400
_BIG_RHS = np.ones(200)


def kernel() -> float:
    """One fixed unit of work; returns a value so that none of it is skipped."""
    acc = 0.0
    for _ in range(200):
        for a, b in zip(_SMALL, _SMALL_RHS):
            acc += float(np.linalg.solve(a, b)[0])
    for _ in range(10):
        acc += float(np.sum(_CUM <= _rng.random(8192)[:, None], axis=1).mean())
    s = 0
    for i in range(80_000):
        s += i & 7
    acc += s
    for _ in range(3):
        acc += float(np.linalg.solve(_BIG, _BIG_RHS)[0])
    return acc


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Times ``kernel`` every ``every`` seconds while started."""

    def __init__(self, every: float):
        self.every = every
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler, kernel included
        self._previous = None
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:  # a signal that came while the kernel ran; skip it
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(time_kernel())
        self.spent += time.perf_counter() - start
        self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
