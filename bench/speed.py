"""The machine's speed, sampled while the benchmark runs, and times scaled by it.

On a shared host the same Python code runs up to twice as slow for seconds
at a time, and its speed swings on every time scale from a millisecond up,
while neighbours load the core. A wall time measured there says as much
about the neighbours as about the engine. So while a :class:`Track` is on, a
timer signal interrupts the program every ``EVERY_S`` and times a short,
fixed probe loop. A span of work is then reported in reference seconds:

    (span - probe time inside it) * REF_S / mean(probe times around it)

that is, the time the same work takes when the probe runs in ``REF_S``. The
probes sample the speed during the span itself, not only at its ends, so a
slow patch in the middle of a long operation is accounted for.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# The probe's fastest time on the reference machine (a 2-vCPU Intel Xeon
# virtual machine, Python 3.11.7) when nothing else loads it, so that times
# read as seconds on that machine unloaded.
REF_S = 220e-6
LOOPS = 200
EVERY_S = 0.01
# Probes that count toward a span's speed: those inside it and within
# MARGIN_S of its ends, so that a span shorter than EVERY_S still has some.
MARGIN_S = 0.025


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def key(self) -> int:
        return self.a + self.b if self.a < self.b else self.b - self.a


def probe() -> float:
    """Time a fixed loop of the kind of work the engine does: small sorted
    tuples, dict counting, frozensets, objects and method calls."""
    start = perf_counter()
    counts: dict[tuple, int] = {}
    total = 0
    for i in range(LOOPS):
        edge = tuple(sorted((i % 97, i * 7 % 101, i * 13 % 103)))
        counts[edge] = counts.get(edge, 0) + 1
        total += _Pair(i, i % 17).key()
    {frozenset(edge) for edge in counts}
    sorted(counts)
    return perf_counter() - start


class Track:
    """Probe every ``EVERY_S`` of wall time between :meth:`start` and
    :meth:`stop`, and scale spans of that time to reference seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # in increasing order
        self.lengths: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        probe()
        self.starts.append(start)
        self.lengths.append(perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """The span from ``t0`` to ``t1`` (``perf_counter`` readings) without
        the probes that interrupted it, as measured and in reference
        seconds."""
        starts, lengths = self.starts, self.lengths
        inside = sum(lengths[bisect_left(starts, t0) : bisect_right(starts, t1)])
        lo, hi = bisect_left(starts, t0 - MARGIN_S), bisect_right(starts, t1 + MARGIN_S)
        if lo == hi:  # no probe near the span: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(starts), hi + 1)
        near = lengths[lo:hi]
        net = t1 - t0 - inside
        return net, net * REF_S * len(near) / sum(near)
