"""The wired link before each leg became one pass: the parent's
``Link``, ``LinkConfig``, ``DropTailQueue`` and ``NoLoss``, verbatim, as
the oracle ``tests/test_link_oracle.py`` drives beside
:class:`repro.netsim.link.Link`.

Not a second implementation to maintain: it is frozen, and exists only
so the link can be checked packet for packet against the code it
replaced, with its serialization-finish event (which the link no
longer fires) counted and its differences restated in the test.
``LinkImpairments`` is imported from the link.
"""

from __future__ import annotations

import collections
from typing import Callable, Optional

from repro.netsim.engine import Simulator
from repro.netsim.link import LinkImpairments
from repro.netsim.loss import LossModel, RngLike
from repro.netsim.packet import Packet


class NoLoss(LossModel):
    """Lossless link."""

    def should_drop(self, packet: Packet, now: float) -> bool:
        return False


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


class LinkConfig:
    """Static parameters of a wired link."""

    __slots__ = ("rate_bps", "delay_s", "queue_bytes", "loss")

    def __init__(
        self,
        rate_bps: float,
        delay_s: float = 0.0,
        queue_bytes: Optional[int] = None,
        loss: Optional[LossModel] = None,
    ):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if delay_s < 0:
            raise ValueError(f"negative propagation delay: {delay_s}")
        self.rate_bps = float(rate_bps)
        self.delay_s = float(delay_s)
        self.queue_bytes = queue_bytes
        self.loss = loss or NoLoss()

    def serialization_delay(self, size_bytes: int) -> float:
        """Time to clock ``size_bytes`` onto the wire."""
        return size_bytes * 8.0 / self.rate_bps

    def __repr__(self) -> str:
        return (
            f"LinkConfig(rate={self.rate_bps / 1e6:.3f}Mbps, "
            f"delay={self.delay_s * 1e3:.3f}ms, queue={self.queue_bytes})"
        )


class Link:
    """Unidirectional link delivering packets to a sink callback.

    Packets are dropped either by the loss model (applied on ingress,
    like a hardware impairment port) or by queue overflow at the
    bottleneck.  Serialization is modeled exactly: the transmitter is
    busy for ``size * 8 / rate`` per packet, then the packet propagates
    for ``delay_s`` and is handed to ``sink``.

    Fleet-scale shards construct and drive thousands of links'
    packets through one process, so the class is slotted; new state
    belongs in the slots tuple, not ad-hoc attributes.
    """

    __slots__ = ("sim", "config", "sink", "name", "queue", "_busy",
                 "_on_wire", "packets_sent", "packets_delivered", "packets_lost",
                 "packets_duplicated", "packets_corrupted",
                 "packets_reordered", "bytes_delivered", "_tel",
                 "_tel_stride", "_tel_n", "_imp", "_en")

    def __init__(
        self,
        sim: Simulator,
        config: LinkConfig,
        sink: Optional[Callable[[Packet], None]] = None,
        name: str = "link",
    ):
        self.sim = sim
        self.config = config
        self.sink = sink
        self.name = name
        self.queue = DropTailQueue(config.queue_bytes)
        self._busy = False
        # The packet being clocked onto the wire while ``_busy``: the
        # transmitter serializes one at a time, so its completion event
        # needs no closure to know which.
        self._on_wire: Optional[Packet] = None
        # counters
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_lost = 0
        self.packets_duplicated = 0
        self.packets_corrupted = 0
        self.packets_reordered = 0
        self.bytes_delivered = 0
        # telemetry: one None-check per packet event when disabled.
        # Per-packet events sample through a site-local stride counter
        # (see TraceCollector.sampling_stride): stride 0 = never emit.
        self._tel = sim.telemetry
        self._tel_stride = (self._tel.sampling_stride("netsim")
                            if self._tel is not None else 0)
        self._tel_n = 0
        # energy/airtime ledger: same null-guard pattern.
        self._en = sim.energy
        # chaos impairment stage: same null-guard pattern.
        self._imp: Optional[LinkImpairments] = None

    # ------------------------------------------------------------------
    def connect(self, sink: Callable[[Packet], None]) -> None:
        """Attach the receive-side callback."""
        self.sink = sink

    # ------------------------------------------------------------------
    # chaos mutation API
    # ------------------------------------------------------------------
    def set_rate(self, rate_bps: float) -> None:
        """Retune the serialization rate; applies from the next packet
        clocked onto the wire (an in-flight serialization finishes at
        the old rate, like a real shaper reconfiguration)."""
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        self.config.rate_bps = float(rate_bps)

    def set_delay(self, delay_s: float) -> None:
        """Retune the propagation delay; applies from the next packet
        finishing serialization."""
        if delay_s < 0:
            raise ValueError(f"negative propagation delay: {delay_s}")
        self.config.delay_s = float(delay_s)

    def set_loss(self, model: Optional[LossModel]) -> LossModel:
        """Swap the ingress loss model; returns the previous one so a
        fault window can restore it when it closes."""
        previous = self.config.loss
        self.config.loss = model or NoLoss()
        return previous

    def impairments(self, rng: RngLike) -> LinkImpairments:
        """Attach (or return the existing) impairment stage.

        The first call installs the stage with ``rng``; later calls
        return the same object so composed faults share one stage.
        """
        if self._imp is None:
            self._imp = LinkImpairments(rng)
        return self._imp

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link.

        Returns ``False`` if it was dropped at ingress (loss model,
        blackout, or full queue); the caller must not assume delivery
        either way.
        """
        self.packets_sent += 1
        # Hot path: the site-local stride counter decides keep/drop
        # with plain attribute arithmetic, so a sampled-out event
        # costs neither a collector call nor its field dict (see
        # TraceCollector.sampling_stride).
        if self._imp is not None and self._imp.blackout:
            self._drop(packet, "blackout")
            return False
        if self.config.loss.should_drop(packet, self.sim.now()):
            self._drop(packet, "loss")
            return False
        if not self.queue.try_enqueue(packet):
            self._drop(packet, "queue")
            return False
        if self._tel_stride:
            n = self._tel_n + 1
            if n >= self._tel_stride:
                self._tel_n = 0
                self._tel.emit_kept("netsim", "enqueue", packet.flow_id,
                                    link=self.name, kind=packet.kind.value,
                                    size=packet.size,
                                    queued_bytes=self.queue.bytes_queued)
            else:
                self._tel_n = n
        if (self._imp is not None and self._imp.duplicate_prob > 0.0
                and self._imp.rng.random() < self._imp.duplicate_prob
                and self.queue.try_enqueue(packet)):
            # A duplicated packet consumes queue space and airtime like
            # any other; overflow silently cancels the duplication.
            self.packets_duplicated += 1
        if not self._busy:
            self._start_transmission()
        return True

    def _drop(self, packet: Packet, reason: str) -> None:
        """Count one lost packet and trace why (off the per-packet hot
        path, so the stride tick may be a call here)."""
        self.packets_lost += 1
        if self._tel_stride and self._tick():
            self._tel.emit_kept("netsim", "drop", packet.flow_id,
                                link=self.name, reason=reason,
                                kind=packet.kind.value, size=packet.size,
                                pkt_seq=packet.pkt_seq)

    def _tick(self) -> bool:
        """Advance the netsim stride counter; ``True`` = keep.  Only
        call when ``self._tel_stride`` is non-zero."""
        n = self._tel_n + 1
        if n >= self._tel_stride:
            self._tel_n = 0
            return True
        self._tel_n = n
        return False

    # ------------------------------------------------------------------
    def _start_transmission(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            if self._busy and self._tel_stride and self._tick():
                self._tel.emit_kept("netsim", "idle", 0, link=self.name)
            self._busy = False
            self._on_wire = None
            return
        self._busy = True
        if self._tel_stride:
            n = self._tel_n + 1
            if n >= self._tel_stride:
                self._tel_n = 0
                self._tel.emit_kept("netsim", "tx_start", packet.flow_id,
                                    link=self.name, kind=packet.kind.value,
                                    size=packet.size)
            else:
                self._tel_n = n
        if self._en is not None:
            self._en.on_tx(packet)
        self._on_wire = packet
        # call_at, not call_in: its not-in-the-past test also rejects
        # the negative or NaN delay the extra frame would test for.
        sim = self.sim
        sim.call_at(sim.now() + self.config.serialization_delay(packet.size),
                    self._finish_transmission)

    def _finish_transmission(self) -> None:
        packet = self._on_wire
        delay = self.config.delay_s
        if self._imp is not None:
            delay += self._propagation_impairment(packet)
            if delay < 0:
                # Corruption: the packet evaporates mid-flight.
                self.packets_corrupted += 1
                self._drop(packet, "corrupt")
                self._start_transmission()
                return
        sim = self.sim
        sim.call_at(sim.now() + delay, lambda p=packet: self._deliver(p))
        self._start_transmission()

    def _propagation_impairment(self, packet: Packet) -> float:
        """Extra propagation delay from the impairment stage, or a
        negative sentinel when the packet is corrupted away."""
        imp = self._imp
        extra = 0.0
        if imp.corrupt_prob > 0.0 and imp.rng.random() < imp.corrupt_prob:
            return -1.0
        if imp.jitter_s > 0.0:
            extra += imp.rng.random() * imp.jitter_s
        if imp.reorder_prob > 0.0 and imp.rng.random() < imp.reorder_prob:
            self.packets_reordered += 1
            extra += imp.reorder_extra_s
        return extra

    def _deliver(self, packet: Packet) -> None:
        self.packets_delivered += 1
        self.bytes_delivered += packet.size
        packet.hops += 1
        if self._tel_stride:
            n = self._tel_n + 1
            if n >= self._tel_stride:
                self._tel_n = 0
                self._tel.emit_kept("netsim", "delivered", packet.flow_id,
                                    link=self.name, kind=packet.kind.value,
                                    size=packet.size)
            else:
                self._tel_n = n
        if self._en is not None:
            self._en.on_rx(packet)
        if self.sink is not None:
            self.sink(packet)

    # ------------------------------------------------------------------
    @property
    def loss_rate_observed(self) -> float:
        """Fraction of offered packets dropped so far."""
        if self.packets_sent == 0:
            return 0.0
        return self.packets_lost / self.packets_sent

    def __repr__(self) -> str:
        return f"Link({self.name}, {self.config!r})"
