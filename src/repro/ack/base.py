"""Acknowledgment policy interface.

The receiver calls the hooks below; the policy answers through the
receiver: ``send_ack`` writes a plain ACK, and ``emit_feedback`` sends
the :class:`~repro.transport.feedback.AckFeedback` that
``build_feedback`` snapshots (TACK, IACK) through the reverse path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.loss_detect import GapEvent
    from repro.transport.receiver import TransportReceiver


class AckPolicy:
    """Base policy: never acknowledges anything on its own."""

    name = "none"

    def __init__(self):
        self.receiver: Optional["TransportReceiver"] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, receiver: "TransportReceiver") -> None:
        """Bind to the owning receiver; timers may be armed here."""
        self.receiver = receiver

    def detach(self) -> None:
        """Cancel timers; called when the connection closes."""
        self.receiver = None

    def attach_profiler(self, profiler) -> None:
        """Bind the data/gap hot paths to ``ack.<name>.*`` spans.

        Called by the receiver at construction time; re-binding keeps
        the paths branch-free when no profiler is attached.
        """
        if profiler is not None:
            self.on_data = profiler.wrap(f"ack.{self.name}.on_data",
                                         self.on_data)
            self.on_gap = profiler.wrap(f"ack.{self.name}.on_gap",
                                        self.on_gap)

    # ------------------------------------------------------------------
    # events from the receiver
    # ------------------------------------------------------------------
    def on_data(self, packet: Packet, in_order: bool) -> None:
        """A data segment arrived (``in_order`` means it advanced the
        cumulative acknowledgment point)."""

    def on_gap(self, event: "GapEvent") -> None:
        """The PKT.SEQ tracker exposed fresh missing packet numbers."""

    def on_window_event(self, reason: str) -> None:
        """Receive-buffer pressure changed abruptly (``"zero_window"``
        or ``"window_open"``)."""

    def on_close(self) -> None:
        """Stream finished; emit any final feedback."""
