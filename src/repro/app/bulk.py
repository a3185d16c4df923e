"""Bulk transfer workload: one long-lived flow of a chosen scheme."""

from __future__ import annotations

from typing import Optional

from repro.core.flavors import make_connection
from repro.core.params import TackParams
from repro.netsim.engine import Simulator
from repro.netsim.paths import PathHandle
from repro.stats.collector import FlowCollector


class BulkFlow:
    """Convenience wrapper: scheme + path -> running bulk flow.

    Exposes the connection, a :class:`FlowCollector`, and the summary
    accessors every benchmark needs.
    """

    def __init__(
        self,
        sim: Simulator,
        path: PathHandle,
        scheme: str = "tcp-tack",
        params: Optional[TackParams] = None,
        flow_id: int = 0,
        rcv_buffer_bytes: int = 8 * 1024 * 1024,
        initial_rtt_s: float = 0.05,
        total_bytes: Optional[int] = None,
    ):
        self.sim = sim
        self.path = path
        self.scheme = scheme
        self.conn = make_connection(
            sim,
            scheme,
            params=params,
            flow_id=flow_id,
            rcv_buffer_bytes=rcv_buffer_bytes,
            initial_rtt_s=initial_rtt_s,
        )
        self.conn.wire(path.forward, path.reverse)
        self.collector = FlowCollector(sim, self.conn, name=f"{scheme}#{flow_id}")
        self.total_bytes = total_bytes

    def start(self) -> None:
        if self.total_bytes is None:
            self.conn.start_bulk()
        else:
            self.conn.start_transfer(self.total_bytes)

    # ------------------------------------------------------------------
    def goodput_bps(self, start: float = 0.0, end: Optional[float] = None) -> float:
        return self.collector.goodput_bps(start, end)

    def arrival_bps(self, start: float, end: float) -> float:
        """Run to ``end``; the rate of the bytes that first reach the
        receiver in ``[start, end]``.  In-order delivery would also count
        bytes received before ``start`` and handed up after it."""
        stats = self.conn.receiver.stats
        at_start = []
        self.sim.call_at(start, lambda: at_start.append(stats.bytes_received))
        self.sim.run(until=end)
        return (stats.bytes_received - at_start[0]) * 8.0 / (end - start)

    def ack_count(self) -> int:
        return self.conn.ack_count()

    def data_packet_count(self) -> int:
        return self.conn.sender.stats.data_packets_sent

    def ack_ratio(self) -> float:
        """ACKs per data packet (the paper quotes 1.9% for TACK vs
        ~50% for TCP over 802.11g)."""
        sent = self.data_packet_count()
        return self.ack_count() / sent if sent else 0.0

    @property
    def completed(self) -> bool:
        return self.conn.completed

    def completion_time(self) -> Optional[float]:
        return self.conn.sender.completed_at
