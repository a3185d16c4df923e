"""Packet pacing.

Paper S5.3: lowering ACK frequency makes ack-clocked senders bursty,
so a TACK-based sender must pace.  The pacer is a simple virtual-time
regulator: each transmission advances the earliest next-send time by
``size * 8 / rate``; short idle periods reset the debt so a flow never
bursts after silence.
"""

from __future__ import annotations


class Pacer:
    """Spaces transmissions at a target bit rate: the next packet may
    leave once ``now >= release_at``."""

    __slots__ = ("_rate_bps", "release_at")

    def __init__(self, rate_bps: float = 1e6):
        if rate_bps <= 0:
            raise ValueError(f"pacing rate must be positive, got {rate_bps}")
        self._rate_bps = rate_bps
        self.release_at = 0.0

    @property
    def rate_bps(self) -> float:
        return self._rate_bps

    def set_rate(self, rate_bps: float) -> None:
        if rate_bps > 0:
            self._rate_bps = rate_bps

    def on_sent(self, size_bytes: int, now: float) -> None:
        """Charge one transmission against the budget."""
        base = self.release_at
        if base < now:
            base = now
        self.release_at = base + size_bytes * 8.0 / self._rate_bps

    def forgive(self, now: float, size_bytes: int) -> None:
        """Cap outstanding debt at one *size_bytes* transmission at
        the current rate: whatever exceeds that was charged at a rate
        that has since been replaced."""
        self.release_at = min(self.release_at,
                              now + size_bytes * 8.0 / self._rate_bps)
