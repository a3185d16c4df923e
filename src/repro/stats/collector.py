"""Per-flow measurement collector.

Attaches to a connection and records delivery and delay time series so
benchmarks can compute windowed goodput, OWD percentiles, and the
power metric without reaching into protocol internals.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.engine import Simulator
from repro.stats.percentile import percentile
from repro.stats.power import kleinrock_power
from repro.stats.series import TimeSeries
from repro.transport.connection import Connection


class FlowCollector:
    """Records per-flow delivery progress and one-way delays."""

    def __init__(self, sim: Simulator, conn: Connection, name: str = "flow"):
        self.sim = sim
        self.conn = conn
        self.name = name
        self.delivered = TimeSeries(f"{name}.delivered")
        self.owd_samples: list[float] = []
        self._cum_delivered = 0
        conn.receiver.on_deliver(self._on_deliver)
        conn.receiver.owd_sink = self.owd_samples.append

    def _on_deliver(self, nbytes: int, now: float) -> None:
        self._cum_delivered += nbytes
        self.delivered.add(now, self._cum_delivered)

    # ------------------------------------------------------------------
    def goodput_bps(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Delivered-byte rate over [start, end]."""
        if end is None:
            end = self.sim.now()
        if end <= start:
            return 0.0
        window = self.delivered.window(start, end)
        if not window:
            return 0.0
        before = self.delivered.window(float("-inf"), start)
        base = before[-1] if before else 0.0
        return (window[-1] - base) * 8.0 / (end - start)

    def owd_percentile_s(self, p: float = 95.0) -> float:
        return percentile(self.owd_samples, p)

    def power(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Kleinrock power over the window (paper Fig. 14 utility)."""
        return kleinrock_power(self.goodput_bps(start, end),
                               self.owd_percentile_s(95.0))
