"""A speedometer: the host's current speed, sampled with a fixed kernel.

The benchmark's host is a small share of a shared machine, and how fast it
runs the same Python code drifts by 1.2-1.6x over phases of seconds to
minutes.  Wall times alone therefore say as much about the neighbours as
about the program.  The speedometer times a fixed pure-Python reference
kernel, which has nothing to do with fqtlab, every PERIOD seconds from a
SIGALRM handler, and once right before and right after each measured job.
A job's normalised time is its wall time (less the time spent in the
handler) divided by the mean kernel time sampled over it, times NOMINAL_S,
the kernel's time on a quiet host.  A slow phase stretches numerator and
denominator alike, so the normalised time reads as the seconds the job
would have taken on that quiet host.

The kernel does what fqtlab's inner loops do: a schoolbook product through
method calls into a small field class with table lookups, and shifts and
xors of few-hundred-bit integers, as in the bit-packed GF(2) path.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

PERIOD = 0.05  # seconds between samples
# The kernel's time on the sizing host (2-vCPU Xeon VM, Python 3.11) when
# quiet: 0.96 ms at best, 1.3-1.4 ms under typical load from neighbours.
NOMINAL_S = 0.001

_P = 7
_RNG = random.Random(20260101)
_A = tuple(_RNG.randrange(_P) for _ in range(48))
_B = tuple(_RNG.randrange(_P) for _ in range(48))
_BIG = tuple(_RNG.getrandbits(300) | (1 << 300) for _ in range(10))


class _Field:
    def __init__(self, p):
        self.mul_table = [[a * b % p for b in range(p)] for a in range(p)]
        self.add_table = [[(a + b) % p for b in range(p)] for a in range(p)]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def add(self, a, b):
        return self.add_table[a][b]


_F = _Field(_P)


def kernel():
    """About 1 ms of interpreter work; returns a checksum."""
    F = _F
    c = [0] * (len(_A) + len(_B) - 1)
    for _ in range(2):
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                c[i + j] = F.add(c[i + j], F.mul(x, y))
    acc = 0
    for x in _BIG:
        for y in _BIG:
            r = x
            while r.bit_length() > 240:
                r ^= y >> (y.bit_length() - r.bit_length())
            acc ^= r
    return c[0] + (acc & 1)


class Speedometer:
    """Samples the kernel time while running; normalises job times."""

    def __init__(self, period=PERIOD):
        self.period = period   # None: sample only around each job
        self.samples = []      # kernel seconds, in the order taken
        self.in_handler = 0.0  # seconds spent taking samples

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.in_handler += dt

    def _ticking(self, on):
        if self.period:
            period = self.period if on else 0
            signal.setitimer(signal.ITIMER_REAL, period, period)

    def __enter__(self):
        if self.period:
            self._old = signal.signal(signal.SIGALRM, self._sample)
        self._ticking(True)
        return self

    def __exit__(self, *exc):
        self._ticking(False)
        if self.period:
            signal.signal(signal.SIGALRM, self._old)
        return False

    def measure(self, fn, wall_of=None):
        """Run fn(); return (its result, wall seconds, normalised seconds).

        Wall seconds exclude the sampling done during the call.  When fn
        runs a child process and `wall_of(result)` gives the child's wall
        time, that is used instead, and no samples are taken while the
        child runs: they would compete with it for the host's other vCPU.
        Normalised seconds divide the wall seconds by the mean of the
        samples taken right before, during and right after the call, and
        multiply by NOMINAL_S.
        """
        first = len(self.samples)
        self._sample()
        busy0 = self.in_handler
        if wall_of is not None:
            self._ticking(False)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0 - (self.in_handler - busy0)
            if wall_of is not None:
                self._ticking(True)
            self._sample()
        if wall_of is not None:
            wall = wall_of(out)
        return out, wall, wall * NOMINAL_S / statistics.fmean(
            self.samples[first:])

    def median_kernel_s(self):
        return statistics.median(self.samples) if self.samples else 0.0
