"""Wall-clock time scaled to a fixed machine speed.

On a shared machine the speed of one core drifts by tens of percent over
periods of seconds, as other tenants load the host; CPU time drifts with it,
so it cannot separate the library's cost from the machine's state. The
clock therefore samples the machine's speed with a short fixed probe (work
of the same kinds as the library's: small NumPy comparisons driven from a
Python loop, and one large array test) at every mark and, from an interval
timer, every SAMPLE_EVERY_S in between. Each segment between two marks is
scaled by PROBE_REF_S over the mean probe time sampled during it, so it
reads as the seconds it would have taken at the speed where the probe takes
PROBE_REF_S. Raw seconds are kept alongside. Probe time is excluded from
the segments.
"""

from __future__ import annotations

import signal
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

# Median probe time on a 2-core x86-64 machine; it only sets the unit.
PROBE_REF_S = 0.004
SAMPLE_EVERY_S = 0.25

_GROUP = np.linspace(-1.0, 1.0, 174).reshape(87, 2)
_DRAWS = np.linspace(-3.0, 3.0, 120_000).reshape(60_000, 2)


def _probe_once() -> float:
    # Interpreter-bound sign counting on a small group, the way the counting
    # score runs per query, and one box test over a large draw set, the way
    # the Monte Carlo score runs. Contention on a shared core slows the first
    # kind far more than the second, so the probe needs both.
    start = perf_counter()
    count = 0
    for row in _GROUP[:60]:
        keep = np.flatnonzero(np.abs(row - 0.1) > 1e-12)
        prod = (_GROUP[:, keep] - row[keep]) * (0.1 - row[keep])
        count += int(np.all(prod < 0, axis=1).sum())
        count += int(np.all(prod == 0, axis=1).sum())
    count += int(np.all((_DRAWS >= 0.1) & (_DRAWS <= 2.0), axis=1).sum())
    return perf_counter() - start


def probe() -> float:
    """Median of three probe runs, in seconds."""
    return statistics.median(_probe_once() for _ in range(3))


class SpeedClock:
    """Accumulates scaled and raw seconds per kind of segment.

    Use as a context manager: the interval timer that samples the speed
    between marks runs only inside the with block, and only one clock may be
    active at a time.
    """

    def __init__(self):
        self.scaled: dict[str, float] = defaultdict(float)
        self.raw: dict[str, float] = defaultdict(float)

    def __enter__(self) -> "SpeedClock":
        self._samples = [probe()]
        self._probing = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        took = _probe_once()
        self._samples.append(took)
        self._probing += took

    def scale(self) -> float:
        """Scale factor at the latest sample, for time measured before the
        clock started."""
        return PROBE_REF_S / self._samples[-1]

    def mark(self, kind: str) -> float:
        """End the current segment, book it under kind, start the next one;
        returns the segment's scaled seconds."""
        raw = perf_counter() - self._start - self._probing
        self._samples.append(probe())
        scaled = raw * PROBE_REF_S / statistics.fmean(self._samples)
        self.scaled[kind] += scaled
        self.raw[kind] += raw
        self._samples = self._samples[-1:]
        self._probing = 0.0
        self._start = perf_counter()
        return scaled
