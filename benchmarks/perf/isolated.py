"""Isolated drivers: time one layer's public functions directly on a
seeded input, with nothing else in the loop."""

from __future__ import annotations

import random
import statistics
import time

from repro.netsim.engine import Simulator
from repro.netsim.packet import MSS
from repro.transport.intervals import IntervalSet

SPIN_EVENTS = 200_000
SPIN_TICKERS = 64
SCOREBOARD_SEGMENTS = 30_000
REPEATS = 3


def _ticker(sim, period_s: float):
    def tick():
        sim.call_in(period_s, tick)
    return tick


def spin_events_per_s(seed: int, scale: float = 1.0):
    """Self-rescheduling callbacks on a bare simulator: the cost of the
    event queue alone.  Returns ``(events per host second, notes)``."""
    events = max(1000, int(SPIN_EVENTS * scale))
    rng = random.Random(seed)
    periods_s = [rng.uniform(0.5e-3, 1.5e-3) for _ in range(SPIN_TICKERS)]
    rates = []
    notes = []
    for _ in range(REPEATS):
        sim = Simulator(seed=seed)
        for period_s in periods_s:
            sim.call_in(period_s, _ticker(sim, period_s))
        started = time.perf_counter()  # reprolint: disable=REP001
        sim.run(max_events=events)
        elapsed = time.perf_counter() - started  # reprolint: disable=REP001
        if sim.events_fired != events:
            notes.append(f"spin fired {sim.events_fired} of {events} events")
        rates.append(events / elapsed)
    return statistics.median(rates), notes


def _scoreboard_arrivals(seed: int, segments: int) -> list:
    """Segment arrival order of a stream with holes: about one segment
    in 40 is held back by 5-60 places, as a loss repaired by a
    retransmission would be."""
    rng = random.Random(seed)
    keyed = [(i + (rng.randrange(5, 60) if rng.random() < 0.025 else 0), i)
             for i in range(segments)]
    keyed.sort()
    return [segment for _, segment in keyed]


def intervals_ops_per_s(seed: int, scale: float = 1.0):
    """``add`` / ``covered`` / ``gaps`` / ``first_missing`` /
    ``remove_below`` in the mix a
    SACK scoreboard with holes sees.  Returns ``(operations per host
    second, notes)``."""
    segments = max(500, int(SCOREBOARD_SEGMENTS * scale))
    arrivals = _scoreboard_arrivals(seed, segments)
    rates = []
    notes = []
    for _ in range(REPEATS):
        board = IntervalSet()
        ops = 0
        new_bytes = 0
        cum_ack = 0
        started = time.perf_counter()  # reprolint: disable=REP001
        for n, segment in enumerate(arrivals):
            new_bytes += board.add(segment * MSS, (segment + 1) * MSS)
            board.covered()
            ops += 2
            if n % 2 == 0:
                board.gaps(board.max_end())
                ops += 1
            if n % 16 == 0:
                cum_ack = board.first_missing(cum_ack)
                board.remove_below(cum_ack - 8 * MSS)
                ops += 2
        elapsed = time.perf_counter() - started  # reprolint: disable=REP001
        if (new_bytes != segments * MSS
                or board.first_missing(cum_ack) != segments * MSS
                or board.gaps(segments * MSS)[1:]):
            notes.append("interval scoreboard ended in the wrong state")
        rates.append(ops / elapsed)
    return statistics.median(rates), notes
