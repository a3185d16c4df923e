"""Bottleneck queues for wired links.

The default is a byte-limited droptail FIFO, which is what the paper's
hardware emulator provides.  A RED variant is included for ablations on
queueing discipline.
"""

from __future__ import annotations

import collections
from typing import Optional

from repro.netsim.loss import RngLike, coerce_rng
from repro.netsim.packet import Packet


class DropTailQueue:
    """Byte-limited FIFO.

    ``capacity_bytes`` of ``None`` means unbounded (useful for access
    links that are never the bottleneck).
    """

    __slots__ = ("capacity_bytes", "_queue", "_bytes", "drops",
                 "enqueued", "peak_bytes")

    def __init__(self, capacity_bytes: Optional[int] = None):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._queue: collections.deque[Packet] = collections.deque()
        self._bytes = 0
        self.drops = 0
        self.enqueued = 0
        self.peak_bytes = 0

    # ------------------------------------------------------------------
    def try_enqueue(self, packet: Packet) -> bool:
        """Append ``packet``; returns ``False`` (and counts a drop) when
        it would overflow the byte capacity."""
        if (
            self.capacity_bytes is not None
            and self._bytes + packet.size > self.capacity_bytes
        ):
            self.drops += 1
            return False
        self._queue.append(packet)
        self._bytes += packet.size
        self.enqueued += 1
        if self._bytes > self.peak_bytes:
            self.peak_bytes = self._bytes
        return True

    def dequeue(self) -> Optional[Packet]:
        """Pop the head packet, or ``None`` when empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        return packet

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def bytes_queued(self) -> int:
        return self._bytes


class REDQueue(DropTailQueue):
    """Random Early Detection on top of the byte FIFO.

    Drop probability ramps linearly from 0 at ``min_thresh`` to
    ``max_p`` at ``max_thresh`` (thresholds in bytes), then the queue
    behaves droptail above ``max_thresh``.  Present for the queueing
    ablation, not used by the headline experiments.
    """

    __slots__ = ("min_thresh", "max_thresh", "max_p", "rng")

    def __init__(
        self,
        capacity_bytes: int,
        min_thresh: Optional[int] = None,
        max_thresh: Optional[int] = None,
        max_p: float = 0.1,
        rng: Optional[RngLike] = None,
    ):
        super().__init__(capacity_bytes)
        self.min_thresh = min_thresh if min_thresh is not None else capacity_bytes // 4
        self.max_thresh = max_thresh if max_thresh is not None else capacity_bytes // 2
        if not 0.0 <= max_p <= 1.0:
            raise ValueError(f"max_p must be in [0, 1], got {max_p}")
        if self.max_thresh <= self.min_thresh:
            raise ValueError("max_thresh must exceed min_thresh")
        self.max_p = max_p
        # An implicit shared seed would correlate RED's marking across
        # every queue of an experiment (see REP008); the thresholds are
        # validated first so configuration errors surface before the
        # missing-rng error.
        if rng is None:
            raise TypeError(
                "REDQueue requires an explicit rng: pass a seeded "
                "random.Random or an int seed"
            )
        self.rng = coerce_rng(rng, "REDQueue")

    def try_enqueue(self, packet: Packet) -> bool:
        depth = self._bytes
        if depth > self.min_thresh:
            if depth >= self.max_thresh:
                p = self.max_p
            else:
                frac = (depth - self.min_thresh) / (self.max_thresh - self.min_thresh)
                p = frac * self.max_p
            if self.rng.random() < p:
                self.drops += 1
                return False
        return super().try_enqueue(packet)
