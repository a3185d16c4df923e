"""The feedback guard's departure-stamp store as it stood in
``FeedbackValidator.on_data_sent`` before the guard kept its stamps in
one append-only list, kept verbatim as the oracle for
``tests/test_guard.py::TestStampStoreOracle``: a membership set plus a
FIFO, both updated and pruned to ``now - echo_window_s`` on every
departure.
"""

from __future__ import annotations

import collections


class SetDequeStampStore:
    """Echoable departure stamps: membership set + FIFO for pruning."""

    def __init__(self, echo_window_s: float):
        self.echo_window_s = echo_window_s
        self._stamps: set[float] = set()
        self._stamp_q: collections.deque[float] = collections.deque()

    def on_data_sent(self, now: float) -> None:
        """Record a departure stamp.  Time is monotone, so the FIFO
        prunes in order."""
        if now not in self._stamps:
            self._stamps.add(now)
            self._stamp_q.append(now)
        horizon = now - self.echo_window_s
        while self._stamp_q and self._stamp_q[0] < horizon:
            self._stamps.discard(self._stamp_q.popleft())

    def stamped(self, ts: float) -> bool:
        """What ``admit`` asked: may ``ts`` be echoed?"""
        return ts in self._stamps

    def __len__(self) -> int:
        return len(self._stamps)
