"""Machine-speed sampling, so that timings taken minutes apart compare.

On a shared host the same pass can take up to 1.7x longer when neighbours load
the machine, and the slow and fast spells last from seconds to minutes.  While a
timed region runs, a SIGALRM handler fires every INTERVAL_S of wall time and
times a slice: a fixed piece of interpreter work like the workloads' own.  Most
of it is sums of products over nested lists of small ints, the inner loop of
`check_axioms`; the rest is exact rational arithmetic, as in the engine's
scalars.  The slowdown differs by kind of work.  On a 2-core Xeon VM in a busy
spell, 54 alternating `check_axioms(closed_form_table(13))` and
`build_table(5)` passes, with both slices timed on every tick, spread 13% and
8% (quartiles over median) when scaled by an earlier slice that mixed
rationals, integer arithmetic and plain loops over lists, and 8% and 6% when
scaled by this one.
Sampling is uniform in time, so the mean slice time is the machine's speed
averaged over the region as the program felt it.  The mean is trimmed by a
tenth at each end, which drops slices hit by a one-off interruption.

    factor = REFERENCE_SLICE_S / trimmed mean slice time
    adjusted time = measured time * factor

An adjusted time is the time the region would have taken on a machine that
runs one slice in REFERENCE_SLICE_S.  The slices cost about 1% of the region.
Only the main thread may use a Sampler (signal handlers run there).
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.008
REFERENCE_SLICE_S = 75e-6  # about one slice on a 2-core Xeon VM in its fast spells
WINDOW_PAD_S = 0.1  # an item's factor also uses the slices this close to it
_TERMS = [Fraction(i, 5 ** (i % 3)) for i in range(1, 4)]
_CUBE = [[[(i * j + k) % 3 for k in range(12)] for j in range(12)] for i in range(12)]


def _slice() -> int:
    acc = Fraction(0)
    for a in _TERMS:
        acc += a * _TERMS[2]
    x = acc.denominator
    row = _CUBE[1]
    for j in range(5):
        for q in range(12):
            x += sum(row[j][e] * _CUBE[e][j][q] for e in range(12) if row[j][e])
    return x


def _trimmed_mean(xs: list[float]) -> float:
    xs = sorted(xs)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut:len(xs) - cut])


class Sampler:
    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, slice time)
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        _slice()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Sampler":
        self.samples.clear()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Speed factor over the whole region, or over [start, end] of it.

        The interval is widened by WINDOW_PAD_S on each side, so that a short
        item still has a few dozen samples; the speed changes over seconds.
        """
        if start is None:
            chosen = [dt for _, dt in self.samples]
        else:
            chosen = [dt for t, dt in self.samples
                      if start - WINDOW_PAD_S <= t <= end + WINDOW_PAD_S]
        return REFERENCE_SLICE_S / _trimmed_mean(chosen or [dt for _, dt in self.samples])
