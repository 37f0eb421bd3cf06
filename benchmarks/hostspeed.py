"""The host's speed, sampled while the benchmark's work runs.

The host this benchmark was built on changes core speed in phases, from a
fraction of a second to longer than a run, up to 1.7x apart.  A time
measured there says as much about the phase as about the code.  So while a
run works, a timer signal interrupts it every ``EVERY_S`` seconds and times
a fixed piece of the benchmark's own code (``calibrate``): integer
determinants and a polynomial product that run no package code, so a
change to the package cannot move them.  ``HostSpeed.seconds`` then turns
the wall time between two readings into *reference seconds*: the time the
sampling itself took is taken out, and the rest is weighted by the mean
speed of the samples in that interval and the one just before and after
it.  One reference second
is a second of work at the speed where ``calibrate`` takes ``REFERENCE_S``.
"""
from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

import workloads

_rng = random.Random("mvvand-bench:calibration")
SMALL = [[_rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
BIG = [[_rng.randint(-(10**60), 10**60) for _ in range(8)] for _ in range(8)]
POLY_A, POLY_B = (
    {tuple(_rng.randrange(4) for _ in range(4)): _rng.randint(-9, 9) for _ in range(12)} for _ in range(2)
)
# calibrate() on the fast state of the host the benchmark was built on:
# 2 vCPUs (Intel Xeon), CPython 3.11.7
REFERENCE_S = 0.0008
EVERY_S = 0.025


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def calibrate() -> float:
    """Seconds a fixed piece of the benchmark's own code takes now.

    It mixes the three kinds of work the workloads do, since the host's
    slow phases slow them by different amounts: small-integer elimination
    (Z/p and small Z), big-integer elimination (Z at high order) and a
    sparse polynomial product in dicts (symbolic).
    """
    start = time.perf_counter()
    workloads.det(SMALL)
    workloads.det(SMALL)
    workloads.det(BIG)
    _poly_mul(POLY_A, POLY_B)
    return time.perf_counter() - start


class HostSpeed:
    """Samples ``calibrate`` from a timer signal while it is entered."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter() in the middle of each sample
        self.speed: list[float] = []  # REFERENCE_S over the sample's seconds
        self.spent = 0.0  # seconds spent sampling, handler overhead included

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        took = calibrate()
        self.at.append(start + took / 2)
        self.speed.append(REFERENCE_S / took)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> tuple[float, float]:
        """A reading of the clock and of the sampling time so far."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:  # no sample ran in between
                return t, spent

    def seconds(self, start, end) -> float:
        """Reference seconds of work between two readings of ``now``.

        Call ``sample`` after ``end`` was read, so that a sample follows it.
        """
        (t0, s0), (t1, s1) = start, end
        lo = max(bisect.bisect_left(self.at, t0) - 1, 0)
        hi = bisect.bisect_right(self.at, t1) + 1
        return (t1 - t0 - (s1 - s0)) * statistics.fmean(self.speed[lo:hi])

    def median_speed(self) -> float:
        """Median host speed over all samples, in reference seconds per second."""
        return statistics.median(self.speed)
