"""Operation timing scaled to a fixed reference speed of the host.

The benchmark runs on shared virtual machines whose speed switches between
states up to 1.8x apart, each lasting from one to tens of seconds, as
other tenants load the host.  Such drift outlasts any affordable run, so
medians of raw times differ by more than any useful bound between two sets
of runs of the same code.  To cancel it, the clock samples the host's
speed while it times operations: a wall-clock interval timer interrupts
the process every ``PERIOD`` seconds, inside library calls too, and the
handler times a fixed probe of interpreter work (exact fractions,
tuple-keyed dicts, sorting; no ``uproll`` code).  Each operation is
reported as

    (measured seconds - probe time inside it) * REF_S / (mean probe within WINDOW of it)

that is, the time the operation would take on a host where the probe takes
``REF_S``.  Probes run with the garbage collector off, so a program that
leaves more objects alive still pays for it in its own scaled times.  Only
the benchmark's timed operations and set-ups are scaled; per-layer self
times are not.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# Probe seconds (faster of two kernels) on the reference machine at rest:
# Intel Xeon, 2 vCPUs, Python 3.11.7.
REF_S = 0.00015
# Seconds between probes, and how far around an operation probes count.
PERIOD = 0.05
WINDOW = 0.1


def _kernel() -> int:
    """Fixed interpreter work of the kind the library does, near 0.2 ms."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 60):
        acc += Fraction(i % 7 + 1, i)
        table[(i % 13, i, acc.denominator % 97)] = acc.numerator % 1000003
    return sum(sorted(table.values())[::3])


class Clock:
    """Times operations and scales them by the probes taken around them.

    Use as a context manager: while it is open, the interval timer probes
    the host.  ``start`` returns an operation's start time and ``stop``
    records the operation; operations do not nest.  A clock made with
    ``probing=False`` records nothing: warm-up operations inside a timed
    set-up use it.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.probe_at: list[float] = []
        self.probe_s: list[float] = []
        self.spans: list[tuple[float, float, float]] = []
        self.paused = 0.0  # seconds spent in probes so far
        self._mark = (None, 0.0)
        self._busy = False

    def probe(self, *_) -> None:
        if self._busy:  # a timer signal that lands inside a probe
            return
        self._busy = True
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            k0 = perf_counter()
            _kernel()
            k1 = perf_counter()
            _kernel()
            best = min(k1 - k0, perf_counter() - k1)
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        t1 = perf_counter()
        self.probe_at.append(t1)
        self.probe_s.append(best)
        self.paused += t1 - t0

    def __enter__(self) -> "Clock":
        self.probe()
        self._saved = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.probe()

    def start(self) -> float:
        t0 = perf_counter()
        self._mark = (t0, self.paused)
        return t0

    def stop(self, t0: float, elsewhere: bool = False) -> float:
        """Record the operation begun at ``t0``; returns its measured seconds
        without the probes that interrupted it.  ``elsewhere`` marks work
        done by a child process, which probes in this one do not delay."""
        t1 = perf_counter()
        inside = self.paused - self._mark[1] if self._mark[0] == t0 and not elsewhere else 0.0
        if self.probing:
            self.spans.append((t0, t1, inside))
        return t1 - t0 - inside

    def scaled(self) -> list[float]:
        """Scaled seconds of every recorded operation, in order."""
        at, out = self.probe_at, []
        for t0, t1, inside in self.spans:
            lo = min(bisect_left(at, t0 - WINDOW), bisect_left(at, t0) - 1)
            hi = max(bisect_right(at, t1 + WINDOW), bisect_right(at, t1) + 1)
            near = self.probe_s[max(lo, 0):hi]
            out.append((t1 - t0 - inside) * REF_S * len(near) / sum(near))
        return out

    def measured(self) -> list[float]:
        return [t1 - t0 - inside for t0, t1, inside in self.spans]
