"""A fixed reference block that gauges how fast the host runs at the moment.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter over spells of seconds to minutes: the same item, on the same input,
takes 1.25x as long in one run as in the next, or in one half of a run as in
the other. No run is long enough to average such spells out. So while the
untraced pass runs, a timer signal interrupts it every ``PERIOD_S`` and
times this block. Each time the pass measures is scaled by ``NOMINAL_S``
over the median block time of the samples taken while it ran, or within
``WINDOW_S`` of its middle if it was shorter than that; the times are then
reported at the reference speed. The block runs twice a
sample and only the second run is timed, so its time does not depend on
what the program left in the caches. The block is benchmark code, which a
change to the program cannot touch, and it does what the program does: a
scipy halfspace intersection with Python loops over its vertices and faces
(bodies.intersect), Python loops over small numpy vectors, and plain Python
arithmetic. The time the samples take is taken out of the item they
interrupt.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

import bodies

# Median seconds of one block on the 2-vCPU Xeon VM at 2.1 GHz that the
# recorded baseline ran on; it only fixes the scale of the numbers.
NOMINAL_S = 0.0028
PERIOD_S = 0.2
# Samples within this many seconds of a time, at least, gauge the host's
# speed there.
WINDOW_S = 5.0
MIN_SAMPLES = 5

_ROWS = bodies.audit_body(np.random.default_rng(0), 8, 8)
_VECS = _ROWS[:, :3]


def block() -> float:
    """Run the block once; return its seconds."""
    t0 = time.perf_counter()
    bodies.intersect(_ROWS)
    acc = 0.0
    for i in range(25):
        a, b = _VECS[i % 8], _VECS[(i + 3) % 8]
        acc += float(np.linalg.norm(np.cross(a, b))) + float(a @ b)
    total = 0
    for i in range(2000):
        total += i * i % 7
    return time.perf_counter() - t0


class Gauge:
    """Samples of the block taken on a timer while a pass runs."""

    def __init__(self):
        self.samples = []  # (midpoint, seconds)
        self.paused = 0.0  # seconds the samples took from the pass
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        block()
        s = block()
        t1 = time.perf_counter()
        self.samples.append((t1 - s / 2, s))
        self.paused += t1 - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale_at(self, t: float, half_span: float = 0.0) -> float:
        """Factor that turns a time measured around ``t`` into one at reference speed.

        Uses the samples within ``half_span`` or ``WINDOW_S`` of ``t``,
        whichever is wider, or the ``MIN_SAMPLES`` nearest ones if that
        window holds fewer.
        """
        reach = max(half_span, WINDOW_S)
        near = [s for m, s in self.samples if abs(m - t) <= reach]
        if len(near) < MIN_SAMPLES:
            near = [s for _, s in sorted(self.samples, key=lambda b: abs(b[0] - t))[:MIN_SAMPLES]]
        return NOMINAL_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(s for _, s in self.samples)
