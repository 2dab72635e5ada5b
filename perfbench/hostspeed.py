"""Host-speed correction for timings taken on a shared machine.

On a few cores of a shared host, other tenants slow this process down by up
to 1.8x for stretches of seconds to minutes, and process CPU time slows with
wall time, so neither clock alone gives figures that repeat.  A fixed probe,
a small piece of pure-Python work that does not touch cyclesplit, is timed
between solves.  A solve's time is scaled by ``PROBE_REF_S`` / (the probe's
time around that solve): the result is the solve's time at the host speed
where the probe takes ``PROBE_REF_S``.  A change to the program moves the
solve times and not the probe, so it shows in full in the corrected figures.
"""

from __future__ import annotations

import bisect
import random
import statistics
from array import array
from time import perf_counter

# The probe's typical time on the 2-vCPU host the benchmark was written on
# (Python 3.11).  Any fixed value will do: it only sets the scale.
PROBE_REF_S = 0.0008
PROBE_EVERY_S = 0.02  # probe at most this often between solves
NEAREST = 6  # a solve's host speed is the median of this many nearby probes

_rng = random.Random(3)
_BITS = [_rng.getrandbits(500) for _ in range(24)]
_IDX = [_rng.randrange(500) for _ in range(64)]


def _probe_work() -> int:
    """The mix the solver spends its time on: indexed loops with integer
    tests, bit tests on big adjacency integers, dict and set updates, a sort."""
    idx = _IDX
    acc = 0
    for i in range(64):
        a = idx[i]
        for j in range(i + 1, 64):
            b = idx[j]
            if a != b and (a + b) & 3 == 1:
                acc += 1
    for bits in _BITS:
        for y in idx:
            if (bits >> y) & 1:
                acc += 1
    d: dict[int, int] = {}
    s: set[tuple[int, int]] = set()
    for i in range(600):
        x = idx[i & 63] ^ i
        d[x] = d.get(x, 0) + 1
        s.add((x, i & 7))
    return acc + len(sorted(d.items())) + len(s)


class HostSpeed:
    """Probe samples of one run, and the corrections taken from them."""

    def __init__(self):
        self.at = array("d")  # midpoint of each probe
        self.took = array("d")
        for _ in range(3):  # warm-up, not recorded
            _probe_work()

    def probe(self) -> None:
        t0 = perf_counter()
        _probe_work()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def maybe_probe(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.probe()

    def adjust(self, t0: float, t1: float) -> float:
        """The length of [t0, t1] at the reference host speed: scaled by
        PROBE_REF_S / the median of the probes taken inside the interval
        and the NEAREST around it."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        half = NEAREST // 2
        near = self.took[max(0, lo - half) : hi + half]
        if not near:
            raise RuntimeError("no probe was taken")
        return (t1 - t0) * (PROBE_REF_S / statistics.median(near))
