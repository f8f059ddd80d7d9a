"""The machine's speed, gauged by a fixed reference kernel between runs.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over minutes: identical work, timed in consecutive windows,
reads 25-40% slower in some minutes than in others, in CPU time as well as
in wall time.  Raw timings of one run therefore say as much about the host
as about the program.  ``SpeedGauge`` times a reference kernel that never
changes (it does not touch ``tailamp``) at regular moments of the run, and
the benchmark divides every timing by the ratio of the kernel's median
time around that moment to ``NOMINAL_S``: timings are reported at the
speed at which the kernel takes ``NOMINAL_S``.  Raw timings and the
run's median ratio are printed too.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# About the median kernel time on the machine the benchmark was defined on
# (2 shared cores of an Intel Xeon, Python 3.11, numpy 2.4).  Fixed:
# changing it rescales every reported timing.
NOMINAL_S = 0.012
EVERY_S = 0.1    # gauge again once this much run time has passed since the last gauge
WINDOW = 21      # a timing is rescaled by the median of this many gauges around it

_VECTOR = 1 << 15
_GRID = np.linspace(1e-3, 1.5, 256)
_OMEGA = np.arange(1.0, 48.0, 2.0)
_HITS = np.arange(24.0)


def reference_kernel() -> float:
    """A fixed mix of the work the program does, in three equal parts.

    Interpreter-bound scalar code (bisection with ``math``), small-array
    numpy (a binomial log-likelihood on a grid) and a 2**15-entry complex
    state vector swept pair by pair.  Returns a checksum so nothing is
    optimised away.
    """
    acc = 0.0
    for i in range(600):
        target = 0.05 + 0.0015 * i
        lo, hi = 0.0, 0.5 * math.pi
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            if math.sin(mid) ** 2 < target:
                lo = mid
            else:
                hi = mid
        acc += lo
    for i in range(30):
        p = np.clip(np.sin(np.outer(_GRID + 1e-4 * i, _OMEGA)) ** 2, 1e-15, 1.0 - 1e-15)
        acc += float((_HITS * np.log(p) + (32.0 - _HITS) * np.log1p(-p)).sum())
    amps = np.full(_VECTOR, 1.0 / math.sqrt(_VECTOR), dtype=complex)
    c, s = math.cos(0.1), math.sin(0.1)
    for _ in range(24):
        even, odd = amps[0::2].copy(), amps[1::2].copy()
        amps[0::2] = c * even - s * odd
        amps[1::2] = s * even + c * odd
        amps[1::2] *= -1.0
    acc += float(np.sum(np.abs(amps) ** 2))
    return acc


class SpeedGauge:
    """Kernel timings taken during one run of the benchmark, with their start times."""

    def __init__(self):
        self.times: list[float] = []     # perf_counter at the start of each gauge, ascending
        self.samples: list[float] = []   # seconds the kernel took
        self._since = 0.0

    def gauge(self) -> float:
        """Time the kernel once; returns the seconds it took."""
        start = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - start
        self.times.append(start)
        self.samples.append(took)
        self._since = 0.0
        return took

    def after_run(self, run_seconds: float) -> float:
        """Count a run's time; gauge when EVERY_S has passed.  Returns time spent gauging."""
        self._since += run_seconds
        return self.gauge() if self._since >= EVERY_S else 0.0

    @property
    def slowdown(self) -> float:
        """Median kernel time of the whole run over NOMINAL_S: above 1 when the host runs slow."""
        return statistics.median(self.samples) / NOMINAL_S

    def slowdown_at(self, when: float) -> float:
        """The slowdown around one moment: the median of the WINDOW gauges nearest to it."""
        n = len(self.samples)
        lo = min(max(bisect.bisect(self.times, when) - WINDOW // 2, 0), max(n - WINDOW, 0))
        return statistics.median(self.samples[lo : lo + WINDOW]) / NOMINAL_S

    def seconds(self, when: float, raw: float) -> float:
        """A raw duration that started at ``when``, rescaled to the nominal speed."""
        return raw / self.slowdown_at(when)
