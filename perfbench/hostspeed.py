"""Host-speed calibration: timings scaled to a fixed reference speed.

On a shared host the speed of a vCPU can switch between a fast and a slow
state (1.7x apart on a 2-vCPU x86_64 VM, each state lasting from a fraction
of a second to minutes), and the switch moves every timing alike.  So
each run also times a fixed calibration loop of small-``Fraction``
arithmetic (the kind of work kostka does), interleaved with its requests
outside the timed region and taking a fixed share of the run's time.
Each request's time is reported at the reference speed, at which one
calibration sample takes REF_S, using the samples taken nearest to it:

    reported = measured * REF_S / mean(the NEAREST samples around the request)

The mean, not the median, because a request that spans a switch is slowed
by the share of its time spent in the slow state.  The raw timings are
printed beside the reported ones.  The loop does not call kostka, so any
change to the program shows in full.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

REF_S = 0.002   # one sample at the reference speed
SHARE = 0.1     # calibration time kept at this share of the timed time
NEAREST = 32    # samples that set the scale of one request
TERMS = 600


def sample() -> float:
    """Seconds for one pass of the calibration loop."""
    t0 = perf_counter()
    s = Fraction(0)
    for i in range(TERMS):
        s += Fraction(i % 7 - 3, i % 5 + 1)
    return perf_counter() - t0


class Meter:
    """Calibration samples spread over a run in proportion to its timed work."""

    def __init__(self):
        self.at = []        # perf_counter() at the end of each sample
        self.samples = []   # seconds
        self.total = 0.0

    def keep_up(self, timed_s: float) -> None:
        """Take samples until they add up to SHARE of ``timed_s``."""
        while not self.samples or self.total < SHARE * timed_s:
            dt = sample()
            self.at.append(perf_counter())
            self.samples.append(dt)
            self.total += dt

    def scale(self, when: float) -> float:
        """Factor from measured to reference-speed seconds at time ``when``."""
        k = bisect_left(self.at, when)
        lo = max(0, min(k - NEAREST // 2, len(self.samples) - NEAREST))
        near = self.samples[lo:lo + NEAREST]
        return REF_S * len(near) / sum(near)

    def reference_s(self, starts, seconds) -> list[float]:
        """Times of requests that began at ``starts`` and took ``seconds``,
        at the reference speed."""
        return [dt * self.scale(t + dt / 2) for t, dt in zip(starts, seconds)]
