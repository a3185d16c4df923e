"""Timing a round in slices, against a reference loop.

The sizing host's speed drifts: a busy sibling core slows everything,
this benchmark included, by 0-40 % for anything from milliseconds to
minutes.  Over ten runs of the same code the median round time spread
10-15 % (interquartile, of the median) and the per-slice minimum 7-15 %;
neither supports a regression bound worth having.

So a round is timed in *slices* — a piece of work that is the same in
every round of a run: a fiftieth of a bulk flow's simulated time, one
fleet shard, one chaos case — and a fixed pure-Python reference loop is
timed before and after every slice.  A slice's cost is its host time in
units of the loop timed next to it: how many iterations of the
reference loop the host could have run instead.  Whatever slows the
host slows both, and the ratio holds a spread of 3-4 %.  The cost
of a round is the sum over its slices of the median cost over the
rounds of the run.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_LOOPS = 20_000


def _reference_s() -> float:
    """Host seconds of the reference loop, the faster of two goes (an
    interrupt in one of them would otherwise read as a slow host)."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()  # reprolint: disable=REP001
        x = 0
        for i in range(REFERENCE_LOOPS):
            x += i * i % 7
        best = min(best, time.perf_counter() - started)  # reprolint: disable=REP001
    return best


class Slices:
    """Times the slices of one round, in order."""

    def __init__(self):
        self.host_s: list = []      # host seconds of each slice
        self.loops: list = []       # the same, in reference-loop iterations
        self._reference_s = _reference_s()

    def run(self, fn, *args, **kwargs):
        """Call *fn* as the next slice and return its result."""
        started = time.perf_counter()  # reprolint: disable=REP001
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started  # reprolint: disable=REP001
        before, self._reference_s = self._reference_s, _reference_s()
        self.host_s.append(elapsed)
        self.loops.append(
            elapsed * REFERENCE_LOOPS * 2.0 / (before + self._reference_s))
        return result


def round_loops(rounds: list) -> float:
    """Cost of one round in reference-loop iterations: per slice the
    median over *rounds* (``Slices`` of identical work), summed."""
    return sum(statistics.median(costs)
               for costs in zip(*(r.loops for r in rounds)))


def round_floor_s(rounds: list) -> float:
    """Host seconds of one round with the host at its fastest: per slice
    the minimum over *rounds*, summed.  Follows the host's slow drift;
    printed for orientation and used for the raw per-layer timings."""
    return sum(min(times) for times in zip(*(r.host_s for r in rounds)))
