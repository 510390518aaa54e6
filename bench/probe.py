"""How fast the machine runs at each moment, for normalising the time metrics.

On a shared host the same code runs up to twice as slow from one second to
the next: the host switches between a fast and a slow state that each last
about 0.5 to 3 s.  Raw times from two runs of the same code therefore
differ by more than any bound worth having.  So, while the workload runs,
a timer signal ``INTERVAL`` seconds of wall time after each probe runs a
small fixed kernel again and records how long it took.  The benchmark divides each timed
span by the probe's time around it and reports the cost in probes: how
many runs of the kernel the machine could have made in that time.  The
host's state cancels, while any change in charcalc's own cost shows in
full.

The kernel does not import charcalc and its inputs never change, so no
change to charcalc can move it.  Its work resembles charcalc's hot loops:
a truncated product of two sparse polynomials keyed by exponent tuples with
Fraction coefficients (the series kernel), and trial division (conductor
validation).  It takes about 4 ms, so the probes cost about 8% of a run;
their time is subtracted from the spans they fall in.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import isqrt
from time import perf_counter

INTERVAL = 0.05

_SYMBOLS = 4
_DEGREE = 4
_PRIME = 100_000_007


def _polynomial(offset: int) -> dict:
    terms = {}
    for mono in product(range(_DEGREE + 1), repeat=_SYMBOLS):
        if sum(mono) <= _DEGREE:
            terms[mono] = Fraction(sum(mono) + offset, 1 + mono[0] + 2 * mono[-1])
    return terms


_X = _polynomial(1)
_Y = _polynomial(2)


def _kernel() -> int:
    by_degree: dict[int, list] = {}
    for mono, coeff in _Y.items():
        by_degree.setdefault(sum(mono), []).append((mono, coeff))
    out: dict = {}
    for mono_x, coeff_x in _X.items():
        degree_x = sum(mono_x)
        for degree_y, bucket in by_degree.items():
            if degree_x + degree_y > _DEGREE:
                continue
            for mono_y, coeff_y in bucket:
                key = tuple(a + b for a, b in zip(mono_x, mono_y))
                value = out.get(key)
                out[key] = coeff_x * coeff_y if value is None else value + coeff_x * coeff_y
    divisors = sum(1 for q in range(2, isqrt(_PRIME) + 1) if _PRIME % q == 0)
    return len(out) + divisors


_EXPECTED = _kernel()


class Speedometer:
    """Between ``start`` and ``stop``, runs the kernel from a SIGALRM
    handler INTERVAL seconds after each probe ends, and keeps (start, end,
    kernel seconds) of each probe."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        # Spans of other work, like the probes taken out of the spans
        # they fall in.
        self.gaps: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self) -> None:
        # The collector is held off so that the heap charcalc leaves behind
        # cannot change the figure.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            result = _kernel()
            seconds = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        if result != _EXPECTED:
            raise RuntimeError(f"probe kernel gave {result}, expected {_EXPECTED}")
        self.samples.append((start, perf_counter(), seconds))

    def _alarm(self, signum, frame) -> None:
        # The timer is one-shot and armed again only once the probe is
        # done, so that a stall can never nest one probe inside another.
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._tick()

    @contextmanager
    def paused(self):
        """Holds the probes off for other work, which ``net`` leaves out.
        A probe on either side keeps the spans next to the gap measured."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()
        start = perf_counter()
        try:
            yield
        finally:
            self.gaps.append((start, perf_counter()))
            self._tick()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def net(self, start: float, end: float) -> float:
        """Seconds from start to end, less the probes and gaps inside them."""
        spans = [(a, b) for a, b, _ in self.samples] + self.gaps
        return end - start - sum(b - a for a, b in spans if a >= start and b <= end)

    def probes(self, start: float, end: float) -> float:
        """The span's cost in probes: its net seconds times the mean probe
        rate (1 / probe seconds) over the probes inside it and the nearest
        one on either side.  The rate, not the time, is averaged, because
        the work done in a span is the integral of the machine's speed over
        it.  Probes further out make the figure noisier, not steadier: the
        host may have changed state by then."""
        starts = [a for a, _, _ in self.samples]
        first = max(bisect_left(starts, start) - 1, 0)
        last = bisect_right(starts, end) + 1
        near = [s for _, _, s in self.samples[first:last]]
        return self.net(start, end) * sum(1 / s for s in near) / len(near)
