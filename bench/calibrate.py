"""Host-speed calibration for timings taken on a shared machine.

On a host shared with other tenants the speed of one vCPU drifts by tens
of percent over seconds to minutes, which swamps differences between
runs.  ``Calibration`` times a fixed pure-Python loop every quarter
second between operations.  The loop is the benchmark's own code and
never calls the package under test, so a change to the program cannot
move it; only the host can.  A latency is scaled by
``NOMINAL_MS / local loop time``, which reads as milliseconds on a host
where the loop takes ``NOMINAL_MS``.  Raw times are printed alongside.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import checks

NOMINAL_MS = 5.0
EVERY_S = 0.25
WINDOW = 2  # loop samples on each side of an operation that set its scale

_GENS = tuple((a % 5 - 2, b % 7 - 3, (a * b) % 4 - 2) for a in range(4) for b in range(3))
_TILES = tuple(((u % 9 - 4, v % 9 - 4, (u + v) % 5 - 2), 1 + u % 3, 1 + (u + 1 + v % 2) % 3) for u in range(30) for v in range(30))


def loop() -> int:
    """Tile geometry, set and dict traffic and exact fractions, in the mix
    the program itself runs."""
    seen: dict = {}
    total = Fraction(0)
    for t in _TILES:
        f = checks.flat(t)
        seen[f] = seen.get(f, 0) + checks.height(_GENS, checks.vertices(t)[2])
        total += Fraction(f[0][0], 1 + abs(f[0][1]))
    return len(seen) + int(total)


class Calibration:
    def __init__(self) -> None:
        self.times_ms: list[float] = []
        self._last = float("-inf")

    def tick(self) -> int:
        """Time the loop if a quarter second has passed; index of the latest sample."""
        now = time.perf_counter()
        if now - self._last >= EVERY_S:
            t0 = time.perf_counter_ns()
            loop()
            self.times_ms.append((time.perf_counter_ns() - t0) / 1e6)
            self._last = time.perf_counter()
        return len(self.times_ms) - 1

    def scale(self, j: int) -> float:
        """Factor that turns a time taken near sample ``j`` into nominal time."""
        near = self.times_ms[max(0, j - WINDOW) : j + WINDOW + 1]
        return NOMINAL_MS / statistics.median(near)
