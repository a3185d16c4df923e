"""Connection: a sender and a receiver wired across two ports.

A "port" is anything with ``send(packet) -> bool`` and
``connect(sink)`` — a wired :class:`~repro.netsim.link.Link`, a WLAN
:class:`~repro.wlan.station.Station`, a :class:`~repro.netsim.pipe.Pipe`
— so the same connection runs over every substrate in the paper.
"""

from __future__ import annotations

from typing import Optional

from repro.ack.base import AckPolicy
from repro.cc.base import CongestionController
from repro.netsim.engine import Simulator
from repro.netsim.packet import MSS
from repro.transport.errors import AbortInfo, ConnectionAborted, abort_result
from repro.transport.guard import GuardConfig
from repro.transport.receiver import TransportReceiver
from repro.transport.sender import TransportSender


class ConnectionConfig:
    """Knobs shared by both endpoints of a connection."""

    def __init__(
        self,
        mss: int = MSS,
        rcv_buffer_bytes: int = 4 * 1024 * 1024,
        receiver_driven: bool = False,
        timing_mode: str = "legacy",
        auto_drain: bool = True,
        flow_id: int = 0,
        initial_rto_s: float = 1.0,
        simsan: Optional[bool] = None,
        max_syn_retries: int = 6,
        max_rto_retries: int = 10,
        max_persist_retries: int = 16,
        guard: Optional[GuardConfig] = None,
    ):
        self.mss = mss
        self.rcv_buffer_bytes = rcv_buffer_bytes
        self.receiver_driven = receiver_driven
        self.timing_mode = timing_mode
        self.auto_drain = auto_drain
        self.flow_id = flow_id
        self.initial_rto_s = initial_rto_s
        # Tri-state: None follows REPRO_SIMSAN / the simulator's own
        # setting; True force-enables invariant checks on the sim.
        self.simsan = simsan
        # Give-up thresholds (see repro.transport.errors): how many
        # consecutive unanswered retries of each kind before the sender
        # records a structured abort instead of retrying forever.
        self.max_syn_retries = max_syn_retries
        self.max_rto_retries = max_rto_retries
        self.max_persist_retries = max_persist_retries
        # Feedback guard tuning; None means the default-enabled
        # GuardConfig() (see repro.transport.guard).
        self.guard = guard


class Connection:
    """One unidirectional data transfer (sender -> receiver).

    Parameters
    ----------
    sim:
        Simulation driver.
    cc:
        Congestion controller instance for the sender.
    policy:
        Acknowledgment policy instance for the receiver.
    forward_port / reverse_port:
        Data-direction and feedback-direction ports.  ``wire()`` may
        be called later instead.
    """

    def __init__(
        self,
        sim: Simulator,
        cc: CongestionController,
        policy: AckPolicy,
        config: Optional[ConnectionConfig] = None,
        forward_port=None,
        reverse_port=None,
    ):
        self.sim = sim
        self.config = config or ConnectionConfig()
        cfg = self.config
        if cfg.simsan:
            # Must happen before the endpoints are built: they cache
            # the sanitizer reference at construction time.
            sim.enable_sanitizer()
        # "legacy" (sender-side RTT sampling) leaves the receiver's OWD
        # tracker on its default; any other name is the tracker's to
        # accept or reject.
        receiver_timing = ("advanced" if cfg.timing_mode == "legacy"
                           else cfg.timing_mode)
        self.sender = TransportSender(
            sim,
            cc,
            mss=cfg.mss,
            receiver_driven=cfg.receiver_driven,
            flow_id=cfg.flow_id,
            initial_rto_s=cfg.initial_rto_s,
            max_syn_retries=cfg.max_syn_retries,
            max_rto_retries=cfg.max_rto_retries,
            max_persist_retries=cfg.max_persist_retries,
            guard=cfg.guard,
        )
        self.receiver = TransportReceiver(
            sim,
            policy,
            rcv_buffer_bytes=cfg.rcv_buffer_bytes,
            auto_drain=cfg.auto_drain,
            timing_mode=receiver_timing,
            flow_id=cfg.flow_id,
        )
        if sim.san is not None:
            sim.san.register_pair(self.sender, self.receiver)
        # When the sender gives up, tear down the receive side too so
        # its ACK clock stops and the event loop can drain.  The
        # callback holds the receiver, not the connection: no cycle.
        receiver = self.receiver
        self.sender.on_abort(lambda info: receiver.close())
        if forward_port is not None and reverse_port is not None:
            self.wire(forward_port, reverse_port)

    def wire(self, forward_port, reverse_port) -> None:
        """Attach the two directions of the network path."""
        self.sender.connect(forward_port)
        self.receiver.connect(reverse_port)
        forward_port.connect(self.receiver.on_packet)
        reverse_port.connect(self.sender.on_packet)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def start_bulk(self) -> None:
        """Begin an unlimited bulk transfer."""
        self.sender.set_unlimited()
        self.sender.start()

    def start_transfer(self, nbytes: int) -> None:
        """Begin a fixed-size transfer of ``nbytes``."""
        self.sender.set_total(nbytes)
        self.sender.start()

    @property
    def completed(self) -> bool:
        return self.sender.completed_at is not None

    @property
    def aborted(self) -> Optional[AbortInfo]:
        """The structured abort record, or ``None`` while healthy."""
        return self.sender.aborted

    def raise_if_aborted(self) -> None:
        """Propagate a recorded abort as :class:`ConnectionAborted`.

        Call this *after* ``sim.run(...)`` returns — never from inside
        an event handler, where the exception would tear down every
        flow in the simulation.
        """
        if self.sender.aborted is not None:
            raise ConnectionAborted(self.sender.aborted)

    def goodput_bps(self, duration: Optional[float] = None) -> float:
        """Application goodput: bytes delivered in order at the
        receiver over ``duration`` (defaults to sim time)."""
        if duration is None:
            duration = self.sim.now()
        if duration <= 0:
            return 0.0
        return self.receiver.stats.bytes_delivered * 8.0 / duration

    def ack_count(self) -> int:
        """All feedback packets the receiver has emitted."""
        return self.receiver.stats.total_feedback()

    def summary(self) -> dict:
        """One-call snapshot of the connection's headline statistics —
        what examples and notebooks print after a run."""
        s, r = self.sender.stats, self.receiver.stats
        duration = self.sim.now()
        return {
            "duration_s": duration,
            "goodput_bps": self.goodput_bps(),
            "bytes_delivered": r.bytes_delivered,
            "data_packets_sent": s.data_packets_sent,
            "retransmissions": s.retransmissions,
            "rtos": s.rtos,
            "acks_total": r.total_feedback(),
            "acks_by_kind": {
                "ack": r.acks_sent,
                "tack": r.tacks_sent,
                "iack": r.iacks_sent,
            },
            "ack_per_data": (r.total_feedback() / s.data_packets_sent
                             if s.data_packets_sent else 0.0),
            "rtt_min_s": self.sender.current_rtt_min(),
            "completed": self.completed,
            "aborted": abort_result(self.sender.aborted),
            "guard": {
                "violations": dict(self.sender.guard.counts),
                "total": self.sender.guard.total,
                "watchdog_probes": s.watchdog_probes,
            } if self.sender.guard is not None else None,
        }

    def close(self) -> None:
        self.sender.close()
        self.receiver.close()

    def release(self) -> None:
        """Cut the guard's back-reference to the sender, the flow's one
        reference cycle, once the flow is closed and unwired: nothing
        reaches it any more, and refcounting frees it."""
        if self.sender.guard is not None:
            self.sender.guard.sender = None

    def __repr__(self) -> str:
        return f"Connection(sender={self.sender!r}, receiver={self.receiver!r})"
