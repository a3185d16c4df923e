"""Transport receiver: reassembly, windows, and feedback construction.

The receiver is protocol-flavor-agnostic: all ACK-timing decisions live
in the attached :class:`~repro.ack.base.AckPolicy`.  The receiver owns
the state every policy snapshots into feedback:

* byte-range reassembly (cumulative ack point, SACK/acked blocks,
  gaps/unacked blocks);
* PKT.SEQ tracking for receiver-based loss detection (paper S5.1);
* relative-OWD tracking for advanced round-trip timing (S5.2);
* per-interval delivery-rate and loss-rate measurement (S5.3/S5.4);
* the advertised window derived from a finite receive buffer.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

from repro.ack.base import AckPolicy
from repro.core.loss_detect import PktSeqTracker
from repro.core.owd_timing import OwdSample, ReceiverOwdTracker
from repro.core.rate_sync import ReceiverRateEstimator
from repro.netsim.engine import Simulator
from repro.netsim.packet import ACK_PACKET_SIZE, Packet, PacketType, _packet_uid
from repro.transport.feedback import (FREE_BLOCKS, AckFeedback,
                                      feedback_wire_bytes, make_feedback_packet)
from repro.transport.intervals import IntervalSet

#: The advertised window counts as closed below two full-sized packets.
LOW_WINDOW_BYTES = 2 * 1500


class ReceiverStats:
    """Counters published by the receiver."""

    #: DATA frames dropped for lacking ``seq`` or ``pkt_seq`` (a class
    #: default, so a clean run's counters read as they always have).
    malformed_packets = 0

    def __init__(self):
        self.data_packets = 0
        self.duplicate_packets = 0
        self.bytes_received = 0
        self.bytes_delivered = 0
        self.acks_sent = 0
        self.tacks_sent = 0
        self.iacks_sent = 0
        self.gap_events = 0
        self.peak_buffered_bytes = 0
        # Feedback the reverse port refused at ingress (blackout, loss
        # model, full queue) — the receiver-side view of ACK starvation.
        self.feedback_send_failures = 0

    def total_feedback(self) -> int:
        return self.acks_sent + self.tacks_sent + self.iacks_sent


class TransportReceiver:
    """Receiving endpoint of a connection.

    Parameters
    ----------
    sim:
        Simulation driver (timers, clock).
    policy:
        The acknowledgment policy (decides when/what to feed back).
    rcv_buffer_bytes:
        Receive-buffer capacity backing the advertised window.
    auto_drain:
        When True (default) the application consumes in-order data
        instantly; set False and call :meth:`read` to model a slow
        reader (zero-window experiments, video playback).
    timing_mode:
        "advanced" or "naive" round-trip timing (paper Fig. 6(a)).
    flow_id:
        Stamped on every feedback packet.
    """

    def __init__(
        self,
        sim: Simulator,
        policy: AckPolicy,
        rcv_buffer_bytes: int = 4 * 1024 * 1024,
        auto_drain: bool = True,
        timing_mode: str = "advanced",
        owd_ewma_gain: float = 0.25,
        flow_id: int = 0,
    ):
        self.sim = sim
        self.policy = policy
        self.rcv_buffer_bytes = rcv_buffer_bytes
        self.auto_drain = auto_drain
        self.flow_id = flow_id
        self._port = None
        # reassembly
        self.intervals = IntervalSet()
        self.delivered_ptr = 0  # next byte the app will read
        # trackers
        self.pkt_tracker = PktSeqTracker()
        self.owd = ReceiverOwdTracker(ewma_gain=owd_ewma_gain, mode=timing_mode)
        self.rate = ReceiverRateEstimator()
        self.stats = ReceiverStats()
        # sender-synced state
        self.peer_rtt_min: Optional[float] = None
        self.peer_ack_loss_rate: float = 0.0
        # feedback sequence space (all ACK flavors share one counter);
        # gaps seen by the sender measure ACK-path loss exactly.
        self._fb_seq_next = 0
        # window-event hysteresis
        self._window_was_low = False
        # gap aging for the reorder settling allowance (paper S7); the
        # last unacked walk's key and gaps
        self._gap_first_seen: dict[int, float] = {}
        self._gaps_key: Optional[tuple[int, int]] = None
        self._gaps: list[tuple[int, int]] = []
        self._closed = False
        self._on_deliver: Optional[Callable[[int, float], None]] = None
        #: Called with every DATA arrival's raw relative OWD (FlowCollector).
        self.owd_sink: Optional[Callable[[float], None]] = None
        # simsan: one None-check per data packet when disabled.
        self._san = sim.san
        if self._san is not None:
            self._san.register_receiver(self)
        # probes: one `ack` event per feedback emission goes through
        # the bus (the flow doctor counts them — the denominator side
        # of the rho' ground truth); recv/gap/deliver are trace-only
        # and keep the collector itself.
        self._bus = sim.probes
        self._tel = sim.telemetry
        # site-local sampling stride for the per-packet recv/deliver
        # sites (see TraceCollector.sampling_stride).
        self._tel_stride = (self._tel.sampling_stride("transport")
                            if self._tel is not None else 0)
        self._tel_n = 0
        # energy ledger: counts offered feedback bytes per flow (the
        # feedback packets' airtime/energy is billed at the link).
        self._en = getattr(sim, "energy", None)
        policy.attach(self)
        # profiling: construction-time re-binding (see the sender); the
        # ACK policy binds its own spans through attach_profiler.
        prof = getattr(sim, "profiler", None)
        if prof is not None:
            self.on_packet = prof.wrap("receiver.packet", self.on_packet)
            policy.attach_profiler(prof)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect(self, port) -> None:
        """Attach the reverse-path port feedback is sent through."""
        self._port = port

    def on_deliver(self, callback: Callable[[int, float], None]) -> None:
        """Register an app callback ``(nbytes, now)`` fired when
        in-order data is handed up."""
        self._on_deliver = callback

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        """Entry point for everything arriving on the forward path; DATA
        in one pass, the ``core`` trackers' common cases in place."""
        if self._closed:
            return
        if packet.kind is not PacketType.DATA:
            self._handle_control(packet)
            return
        seq, pkt_seq = packet.seq, packet.pkt_seq
        if seq is None or pkt_seq is None:      # cannot be placed: drop
            self.stats.malformed_packets += 1
            return
        now = self.sim.clock._now
        meta = packet.meta
        if meta and "rtt_min" in meta:
            self.peer_rtt_min = meta["rtt_min"]
        if meta and "ack_loss_rate" in meta:
            self.peer_ack_loss_rate = meta["ack_loss_rate"]
        # Timing and rate trackers see every arrival, duplicates included.
        sent_at = packet.sent_at
        if sent_at is not None:
            owd = self.owd
            if owd.mode == "per-packet":
                sample = owd.on_packet(sent_at, now)
            else:
                # ReceiverOwdTracker.on_packet (test_owd_fold_matches_the_tracker)
                sample = now - sent_at
                owd.samples_seen += 1
                smoothed = owd.smoothed_owd
                owd.smoothed_owd = (sample if smoothed is None else
                                    smoothed + owd.ewma_gain * (sample - smoothed))
                best = owd._interval_best
                if best is None:
                    owd._interval_first = owd._interval_best = OwdSample(
                        sent_at, now, sample)
                elif sample < best.owd:
                    owd._interval_best = OwdSample(sent_at, now, sample)
            if self.owd_sink is not None:
                self.owd_sink(sample)
        tracker = self.pkt_tracker
        if pkt_seq == tracker.largest_seen + 1:
            # PktSeqTracker.on_packet (test_pkt_seq_fold_matches_the_tracker)
            tracker.received += 1
            tracker.largest_seen = pkt_seq
            gap = None
        else:
            gap = tracker.on_packet(pkt_seq)
        # Clip below the consumption point: bytes the app already read
        # were removed from the interval set, so a stale retransmission
        # must not re-enter it (it would corrupt buffer accounting).
        intervals, stats = self.intervals, self.stats
        delivered_ptr = self.delivered_ptr
        end_seq = seq + packet.payload_len
        auto_drain = self.auto_drain
        if seq <= delivered_ptr < end_seq and auto_drain and not intervals._ends:
            # add_and_drain on an empty buffer, all of it ready: nothing
            # stored (test_reassembly_fold_matches_add_and_drain).
            added, ready_upto, buffered = end_seq - delivered_ptr, end_seq, 0
        else:
            added, ready_upto, buffered = intervals.add_and_drain(
                seq, end_seq, delivered_ptr, auto_drain)
        stats.data_packets += 1
        if added == 0:
            stats.duplicate_packets += 1
        else:
            stats.bytes_received += added
            # ReceiverRateEstimator.on_data (test_rate_fold_matches_the_estimator)
            rate = self.rate
            if rate._interval_start is None:
                rate._interval_start = now
            rate._last_arrival = now
            rate._bytes_in_interval += added
        in_order = False
        if ready_upto > delivered_ptr:
            in_order = seq <= delivered_ptr
            if auto_drain:
                self._consume(ready_upto - delivered_ptr)
        if buffered > stats.peak_buffered_bytes:
            stats.peak_buffered_bytes = buffered
        # Site-local stride counter: one event per data packet makes
        # this the receiver's hottest telemetry site, so dropped
        # events must not pay for a collector call.
        if self._tel_stride:
            n = self._tel_n + 1
            if n >= self._tel_stride:
                self._tel_n = 0
                self._tel.emit_kept("transport", "recv", self.flow_id,
                                    seq=seq, pkt_seq=pkt_seq, added=added)
            else:
                self._tel_n = n
        if gap is not None:
            stats.gap_events += 1
            if self._tel is not None:
                lo, hi = gap.missing_range()
                self._tel.emit("transport", "gap", self.flow_id,
                               lo=lo, hi=hi, missing=gap.missing_count)
            self.policy.on_gap(gap)
        if self._san is not None:
            self._san.on_receiver_data(self)
        self.policy.on_data(packet, in_order)
        # A window that is open and was open has no event to raise.
        # ``buffered`` still holds: policies only send feedback, ports
        # deliver by events, and apps read in _consume or in events.
        if (self._window_was_low
                or self.rcv_buffer_bytes - buffered < LOW_WINDOW_BYTES):
            self._check_window_events()

    def _handle_control(self, packet: Packet) -> None:
        if packet.kind is PacketType.SYN:
            reply = Packet(PacketType.SYN_ACK, size=64, flow_id=self.flow_id)
            reply.sent_at = self.sim.now()
            reply.meta["syn_sent_at"] = packet.sent_at
            if self._port is not None:
                self._port.send(reply)
        elif packet.kind is PacketType.FIN:
            self.policy.on_close()
        # Anything else (stray feedback) is ignored.

    # ------------------------------------------------------------------
    # application read side
    # ------------------------------------------------------------------
    def available_bytes(self) -> int:
        """In-order bytes ready for the application."""
        return self.intervals.first_missing(self.delivered_ptr) - self.delivered_ptr

    def read(self, nbytes: int) -> int:
        """Consume up to ``nbytes`` of in-order data; returns the
        amount actually read (slow-reader mode)."""
        take = min(nbytes, self.available_bytes())
        if take > 0:
            self.intervals.remove_below(self.delivered_ptr + take)
            self._consume(take)
            self._check_window_events()
        return take

    def _consume(self, nbytes: int) -> None:
        """Hand ``nbytes`` up; the caller removed them from the buffer."""
        self.delivered_ptr += nbytes
        self.stats.bytes_delivered += nbytes
        if self._tel_stride:
            n = self._tel_n + 1
            if n >= self._tel_stride:
                self._tel_n = 0
                self._tel.emit_kept("transport", "deliver", self.flow_id,
                                    nbytes=nbytes)
            else:
                self._tel_n = n
        if self._on_deliver is not None:
            self._on_deliver(nbytes, self.sim.now())

    # ------------------------------------------------------------------
    # window state
    # ------------------------------------------------------------------
    def buffered_bytes(self) -> int:
        """Bytes held in the receive buffer: in-order data the app has
        not read yet plus out-of-order data waiting for holes."""
        return self.intervals.covered()

    def holb_blocked_bytes(self) -> int:
        """Out-of-order bytes blocked behind the first hole."""
        # DelayedAck._fills_hole reads this off the interval set in
        # place; checked by test_holb_matches_delayed_ack_hole_check.
        return self.intervals.covered() - self.available_bytes()

    def awnd(self) -> int:
        """Advertised window: free receive-buffer space."""
        # Inlined in build_feedback and send_ack; checked by
        # test_awnd_matches_build_feedback.
        return max(0, self.rcv_buffer_bytes - self.intervals.covered())

    def _check_window_events(self) -> None:
        awnd = self.awnd()
        low = awnd < LOW_WINDOW_BYTES
        if low and not self._window_was_low:
            self._window_was_low = True
            self.policy.on_window_event("zero_window")
        elif self._window_was_low and awnd > self.rcv_buffer_bytes // 4:
            self._window_was_low = False
            self.policy.on_window_event("window_open")

    # ------------------------------------------------------------------
    # feedback construction
    # ------------------------------------------------------------------
    def build_feedback(
        self,
        max_sack_blocks: int = 3,
        max_unacked_blocks: int = 0,
        include_timing: bool = False,
        include_rate: bool = False,
        pull_pkt_range: Optional[tuple[int, int]] = None,
        reason: Optional[str] = None,
        min_gap_age_s: float = 0.0,
    ) -> AckFeedback:
        """Snapshot reassembly state into feedback fields.

        ``max_sack_blocks`` caps the "acked list" (legacy SACK uses 3;
        rich TACKs may use more).  ``max_unacked_blocks`` caps the
        "unacked list" (the paper's Q).  Blocks are chosen per S5.1:
        highest-numbered acked blocks, lowest-numbered unacked blocks.
        """
        intervals = self.intervals
        cum_ack = intervals.first_missing(self.delivered_ptr)
        free = self.rcv_buffer_bytes - intervals.covered()    # awnd()
        fb = AckFeedback(
            cum_ack, free if free > 0 else 0,
            intervals.last_ranges(max_sack_blocks, above=cum_ack)
            if max_sack_blocks > 0 else None,
            pull_pkt_range=pull_pkt_range,
            largest_pkt_seq=self.pkt_tracker.largest_seen, reason=reason)
        if not (max_unacked_blocks > 0 or include_timing or include_rate):
            return fb       # a legacy ACK: nothing below reads the clock
        now = self.sim.clock._now
        if max_unacked_blocks > 0:
            # Gaps from cum_ack up: everything below it was consumed
            # (removed from the interval set), not lost.  A settling
            # allowance (paper S7) suppresses gaps younger than
            # ``min_gap_age_s`` so mild reordering is not read as loss.
            # Walked again only for a changed buffer: at the same
            # consumption point and byte count nothing was consumed or
            # added (covered() only grows between consumes; touching
            # ranges merge), so the gaps and first-seen times stand.
            first_seen = self._gap_first_seen
            key = (self.delivered_ptr, intervals.covered())
            if key == self._gaps_key:
                if self._san is not None:
                    self._san.on_gap_cache(self, cum_ack)
                gaps = self._gaps
                if min_gap_age_s > 0:
                    gaps = [gap for gap in gaps
                            if now - first_seen[gap[0]] >= min_gap_age_s]
                fb.unacked_blocks = gaps[:max_unacked_blocks]
            else:
                gaps = intervals.gaps(intervals.max_end(), start=cum_ack)
                unacked = fb.unacked_blocks
                current: set[int] = set()
                for gap in gaps:
                    current.add(gap[0])
                    first = first_seen.setdefault(gap[0], now)
                    if now - first < min_gap_age_s:
                        continue
                    if len(unacked) < max_unacked_blocks:
                        unacked.append(gap)
                for stale in [k for k in first_seen if k not in current]:
                    del first_seen[stale]
                self._gaps_key, self._gaps = key, gaps
        if include_timing:
            ref = self.owd.take_reference()
            if ref is not None:
                fb.echo_departure_ts = ref.departure_ts
                if self.owd.mode != "naive":
                    # Explicit delay correction (paper Fig. 4(b)); the
                    # naive legacy sampling has no such field, so its
                    # RTT absorbs the receiver hold time.
                    fb.tack_delay = now - ref.arrival_ts
            if self.owd.mode == "per-packet":
                # S4.3's high-overhead alternative: one (t0, delta-t)
                # entry per packet of the interval.
                fb.packet_delays = self.owd.take_all_samples(now)
        if include_rate:
            self.rate.close_interval(now)
            bw_bps = self.rate.bw_bps(now)
            if bw_bps > 0:
                fb.delivery_rate_bps = bw_bps
            fb.rx_loss_rate = self.pkt_tracker.loss_rate()
        return fb

    def send_ack(self, max_sack_blocks: int) -> None:
        """``emit_feedback(PacketType.ACK, build_feedback(max_sack_blocks))``
        in one pass, the interval set read in place (twin test:
        test_send_ack_matches_build_and_emit)."""
        port = self._port
        if port is None:
            return
        intervals = self.intervals
        starts, ends = intervals._starts, intervals._ends
        cum_ack = ptr = self.delivered_ptr
        if starts and starts[0] <= ptr:     # unread in-order bytes
            cum_ack = intervals.first_missing(ptr)
        sack = []
        if max_sack_blocks > 0 and ends:    # last_ranges(…, above=cum_ack)
            lo = max(bisect_right(ends, cum_ack), len(ends) - max_sack_blocks)
            sack = list(zip(starts[lo:], ends[lo:]))
        free = self.rcv_buffer_bytes - intervals._covered
        fb = object.__new__(AckFeedback)     # every slot set here
        fb.cum_ack, fb.awnd, fb.sack_blocks = cum_ack, free if free > 0 else 0, sack
        fb.unacked_blocks, fb.packet_delays = [], []
        fb.pull_pkt_range = fb.tack_delay = fb.echo_departure_ts = None
        fb.delivery_rate_bps = fb.rx_loss_rate = fb.reason = None
        fb.largest_pkt_seq, fb.fb_seq = self.pkt_tracker.largest_seen, self._fb_seq_next
        self._fb_seq_next += 1
        size = ACK_PACKET_SIZE if len(sack) <= FREE_BLOCKS else feedback_wire_bytes(fb)
        pkt = object.__new__(Packet)    # Packet.__init__'s slots and uid draw
        pkt.uid, pkt.kind, pkt.size = next(_packet_uid), PacketType.ACK, size
        pkt.seq = pkt.pkt_seq = None
        pkt.payload_len = pkt.hops = 0
        pkt.sent_at, pkt.flow_id, pkt.meta = self.sim.clock._now, self.flow_id, {"fb": fb}
        self.stats.acks_sent += 1
        if self._bus is not None:
            self._bus.emit("ack", "ack", self.flow_id, {
                "reason": None, "cum_ack": cum_ack, "sack": len(sack),
                "unacked": 0, "size": size})
        if self._en is not None:
            self._en.on_feedback_emitted(self.flow_id, size)
        if port.send(pkt) is False:
            self.stats.feedback_send_failures += 1

    def emit_feedback(self, kind: PacketType, fb: AckFeedback) -> None:
        """Send ``fb`` as a ``kind`` packet through the reverse path."""
        if self._port is None:
            return
        # Number every feedback, including ones the reverse port then
        # refuses: from the sender's side, feedback that never made the
        # wire *is* ACK-path loss.
        fb.fb_seq = self._fb_seq_next
        self._fb_seq_next += 1
        pkt = make_feedback_packet(kind, fb, flow_id=self.flow_id)
        pkt.sent_at = self.sim.clock._now
        if kind is PacketType.TACK:
            self.stats.tacks_sent += 1
        elif kind is PacketType.IACK:
            self.stats.iacks_sent += 1
        else:
            self.stats.acks_sent += 1
        if self._bus is not None:
            self._bus.emit("ack", kind._value_, self.flow_id, {
                "reason": fb.reason, "cum_ack": fb.cum_ack,
                "sack": len(fb.sack_blocks),
                "unacked": len(fb.unacked_blocks), "size": pkt.size})
        if self._en is not None:
            self._en.on_feedback_emitted(self.flow_id, pkt.size)
        if self._port.send(pkt) is False:
            self.stats.feedback_send_failures += 1

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.policy.on_close()
        self.policy.detach()

    def __repr__(self) -> str:
        return (
            f"TransportReceiver(cum_ack={self.intervals.first_missing(self.delivered_ptr)}, "
            f"delivered={self.stats.bytes_delivered})"
        )
