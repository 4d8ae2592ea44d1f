"""How fast the core runs right now, to scale measured times to a fixed
reference speed.

The benchmark runs on a shared host whose cores change speed by up to
1.5x from one second to the next, and whose mix of fast and slow phases
drifts over minutes, so raw wall times of identical runs spread wider
than any useful bound.  A short fixed kernel, timed while the workload
runs, reads the core's current speed; dividing it out leaves a time
that depends on the program and hardly on the phase the host was in.

The kernel mixes what regmaps spends its time on: pure-Python dict and
integer work, small numpy fancy-indexing blocks, and ``tobytes`` keys
in a set.  ``Sampler`` runs it from a ``SIGALRM`` handler every
``PERIOD_S`` of wall time (about 2.5% of the run), so each sample reads
the speed of the 25 ms around it.  The probes' own time is subtracted
from the workload's, and each remaining 25 ms is scaled by
``REF_PROBE_S`` over the probe time read in it:

    time at reference speed = work time * mean(REF_PROBE_S / probe time)

``REF_PROBE_S`` fixes the unit.  It is about the kernel's time run on
its own on a fast, uncontended core of the machine the benchmark was
defined on (a 2-vCPU KVM guest on an Intel Xeon, family 6 model 207,
Python 3.11.7, numpy 2.4.6).  Inside a workload the kernel runs with
the workload's data in the caches and reads somewhat slower, so there a
scaled time came out 10-20% below the fastest raw wall times.  Scaled
times compare between runs and commits; they are not one wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
REF_PROBE_S = 0.0004
BURST = 12

_rng = np.random.default_rng(0)
_GENERATORS = [_rng.permutation(48) for _ in range(2)]
_FRONTIER = np.stack([_rng.permutation(48) for _ in range(12)])


def _kernel() -> int:
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i & 255] = counts.get(i & 255, 0) + i * i
    seen = set()
    for _ in range(6):
        for g in _GENERATORS:
            for row in g[_FRONTIER]:
                seen.add(row.tobytes())
    return len(counts) + len(seen)


def probe() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def burst_speed() -> float:
    """REF_PROBE_S over the median of a short run of probes: the factor
    that scales a time measured just before to the reference speed."""
    return REF_PROBE_S / statistics.median(probe() for _ in range(BURST))


class Sampler:
    """Probes the core's speed every PERIOD_S while a workload runs."""

    def __init__(self):
        self.probes: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.probes.append(probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, fallback: float) -> float:
        """mean(REF_PROBE_S / probe time); ``fallback`` when the workload
        ended before the first tick."""
        if not self.probes:
            return fallback
        return statistics.fmean(REF_PROBE_S / p for p in self.probes)
