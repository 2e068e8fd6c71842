"""Host speed meter: op and set-up times in reference-host seconds.

On a shared host, contention slows this process by up to 2x, in phases
that last from under a second to minutes, and it never shows as steal
time.  A wall-clock latency then mostly reads how busy the host was.

The meter times a fixed kernel -- an interpreter loop, tiny numpy ops and
small-object churn, the mix the program's graph replays, builds and solves
are made of -- at the start and end of a timed stretch and every
``INTERVAL_S`` seconds within it (the program's entry points call
:meth:`HostMeter.tick` through the probes).
Each segment of wall time between two samples is scaled by
``REF_MS / mean(samples at its ends)``.  The sum is the time the stretch
would have taken on a host where the kernel takes ``REF_MS``: a program
change moves it, the host's phase mostly does not.  The time spent in the
kernel itself is left out of both the wall and the reference time.
"""

from __future__ import annotations

import statistics
from time import monotonic

import numpy as np

#: kernel time, in ms, of the reference host the metrics are scaled to
REF_MS = 3.0
#: wall seconds between kernel samples within a timed stretch
INTERVAL_S = 0.25

_rng = np.random.default_rng(0)
_X = _rng.random((90, 8))
_W = _rng.random((8, 8))


def kernel_ms(reps: int = 3) -> float:
    """Median milliseconds of the fixed kernel over ``reps`` repetitions."""
    samples = []
    for _ in range(reps):
        start = monotonic()
        total = 0
        for i in range(10000):
            total += i * i
        x = _X
        for _ in range(40):
            y = np.tanh(x @ _W)
            x = (y - y.mean(axis=0)) * 0.5 + _X
        rows = [{"i": i, "s": str(i)} for i in range(2000)]
        del rows
        samples.append((monotonic() - start) * 1e3)
    return statistics.median(samples)


class HostMeter:
    """Wall and reference-host time of one stretch of work at a time."""

    def __init__(self):
        self.samples: list[float] = []
        self._cut = None

    def begin(self, start: float | None = None) -> None:
        """Start a stretch now, or at ``start`` (a ``time.monotonic`` stamp).

        On Linux ``time.monotonic`` is one clock for every process, so a
        parent's stamp from just before it started this process is valid.
        """
        self.wall = self.ref = 0.0
        self._cut = start
        self._last = None
        self._sample()

    def tick(self) -> None:
        """Take a sample if ``INTERVAL_S`` has passed since the last one."""
        if self._cut is not None and monotonic() - self._cut >= INTERVAL_S:
            self._sample()

    def end(self) -> tuple[float, float]:
        """Close the stretch; returns ``(wall_s, reference_s)``."""
        self._sample()
        self._cut = None
        return self.wall, self.ref

    def _sample(self) -> None:
        now = monotonic()
        k = kernel_ms()
        self.samples.append(k)
        if self._cut is not None:
            mean = k if self._last is None else (self._last + k) / 2
            self.wall += now - self._cut
            self.ref += (now - self._cut) * REF_MS / mean
        self._last = k
        self._cut = monotonic()
