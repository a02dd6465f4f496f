"""Host-speed probe that scales the benchmark's times to a reference host.

On a 2-CPU x86-64 Linux host whose cores are shared with other tenants, one
pass of a workload ran up to twice as long a few minutes later, and the host
switched between fast and slow phases within a pass. A fixed probe run
between the ops slows down with the host, so that
time * REFERENCE_S / median(probe) varies far less between runs than the
raw time does (over 200 s of cube cells, by +-8 % against +-25 %). An op's
time is scaled by the probe samples nearest to it, so that it is scaled for
the phase it ran in: over five passes of the cube in one process, that cut
the spread between passes of the cells' p50 latency from 12 % to 7 % and of
their p95 latency from 16 % to 4 %, against one factor per pass.

The probe mixes the two kinds of work the workloads do: pure-Python float
code (bisection on a piecewise-linear function, as in the equilibrium
solver) and a numpy lexsort (as in the finite-agent simulator). Scaling a
workload by only the part that matches its own work spread more between
runs, so every workload uses the mix. The probe calls nothing in segsolve,
so no change to segsolve moves it.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Probe time of the reference host: about the median on that 2-CPU host
# (Python 3.11, numpy 2.4). Scaled times read as seconds on the reference host.
REFERENCE_S = 0.005
# Least time between two probe samples taken by maybe_sample.
PROBE_EVERY_S = 0.1
# Number of samples nearest to an op whose median scales the op's time.
NEAREST = 3

_XS = (0.0, 0.13, 0.31, 0.52, 0.77, 1.0)
_YS = (0.0, 0.25, 0.48, 0.69, 0.88, 1.0)


def _piecewise(x: float) -> float:
    i = bisect.bisect_right(_XS, x)
    if i >= len(_XS):
        return 1.0
    x0, x1, y0, y1 = _XS[i - 1], _XS[i], _YS[i - 1], _YS[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


class HostProbe:
    """Times the fixed probe at most once per PROBE_EVERY_S seconds."""

    def __init__(self):
        values = np.random.default_rng(0).random(20_000)
        self._keys = (values, values > 0.5)
        self.samples: list[float] = []
        self.times: list[float] = []   # midpoint of each sample
        self._last = -float("inf")

    def _work(self) -> float:
        acc = 0.0
        for k in range(60):
            target = (k % 50) / 51.0 + 0.01
            lo, hi = 0.0, 1.0
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                if _piecewise(min(1.0, max(0.0, mid))) < target:
                    lo = mid
                else:
                    hi = mid
            acc += lo
        np.lexsort(self._keys)
        return acc

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._work()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        self.times.append(0.5 * (t0 + self._last))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def factor(self, start: int) -> float:
        """Multiply a time measured while samples[start:] were taken by this
        to express it on the reference host."""
        return REFERENCE_S / statistics.median(self.samples[start:])

    def factor_at(self, t: float) -> float:
        """Multiply a time measured around perf_counter() == t by this to
        express it on the reference host."""
        nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - t))
        return REFERENCE_S / statistics.median(self.samples[i] for i in nearest[:NEAREST])
