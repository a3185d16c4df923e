"""Twin tests for the data path's folded bodies.

The receiver takes a DATA frame, and the sender a new segment, in one
pass, with the common cases of several helpers written in place.  Each
helper stays as the oracle of its fold.  ``OracleReceiver`` and
``OracleSender`` are copies of the unfolded data path, which call ``ReceiverOwdTracker.on_packet``, ``PktSeqTracker.on_packet``,
``ReceiverRateEstimator.on_data``, ``IntervalSet.add`` /
``first_missing`` / ``covered`` / ``remove_below``, ``_transmit_new``
(with ``SendRecord.__init__``), ``Pacer.on_sent`` and
``FeedbackValidator.on_data_sent``.  Each test, named after the fold it
covers, drives the real path and the oracle over the same
hypothesis-generated arrivals or sends and compares the fold's state
after every step.  The copies live as long as the folds do.
"""

from types import MethodType
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ack.base import AckPolicy
from repro.cc import BBR
from repro.core.flavors import make_connection
from repro.netsim.engine import Simulator
from repro.netsim.loss import PatternLoss
from repro.netsim.packet import HEADER_SIZE, MSS, Packet, PacketType
from repro.netsim.paths import wired_path
from repro.transport.intervals import IntervalSet
from repro.transport.receiver import LOW_WINDOW_BYTES, TransportReceiver
from repro.transport.sender import SendRecord, TransportSender


# ----------------------------------------------------------------------
# the unfolded receiver
# ----------------------------------------------------------------------
class OracleReceiver(TransportReceiver):
    """The data path as four ``core``/``IntervalSet`` calls per arrival."""

    def on_packet(self, packet: Packet) -> None:
        """Entry point for everything arriving on the forward path."""
        if self._closed:
            return
        kind = packet.kind
        if kind is PacketType.DATA:
            self._handle_data(packet)
        elif kind is PacketType.FIN:
            self.policy.on_close()
        # Anything else (stray feedback) is ignored.

    def _handle_data(self, packet: Packet) -> None:
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
        if packet.sent_at is not None:
            self.owd.on_packet(packet.sent_at, now)
        gap = self.pkt_tracker.on_packet(pkt_seq)
        # Clip below the consumption point: bytes the app already read
        # were removed from the interval set, so a stale retransmission
        # must not re-enter it (it would corrupt buffer accounting).
        intervals, stats = self.intervals, self.stats
        delivered_ptr = self.delivered_ptr
        clip_start = seq if seq > delivered_ptr else delivered_ptr
        end_seq = seq + packet.payload_len
        added = intervals.add(clip_start, end_seq) if clip_start < end_seq else 0
        stats.data_packets += 1
        if added == 0:
            stats.duplicate_packets += 1
        else:
            stats.bytes_received += added
            self.rate.on_data(added, now)
        in_order = False
        ready_upto = intervals.first_missing(delivered_ptr)
        if ready_upto > delivered_ptr:
            in_order = seq <= delivered_ptr
            if self.auto_drain:
                self._consume(ready_upto - delivered_ptr)
        buffered = intervals.covered()
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

    def read(self, nbytes: int) -> int:
        """Consume up to ``nbytes`` of in-order data; returns the
        amount actually read (slow-reader mode)."""
        take = min(nbytes, self.available_bytes())
        if take > 0:
            self._consume(take)
            self._check_window_events()
        return take

    def _consume(self, nbytes: int) -> None:
        self.delivered_ptr += nbytes
        self.intervals.remove_below(self.delivered_ptr)
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


class RecordingPolicy(AckPolicy):
    """Feeds back nothing; records what the receiver tells it."""

    def __init__(self):
        super().__init__()
        self.log = []

    def on_data(self, packet, in_order):
        self.log.append(("data", packet.pkt_seq, in_order))

    def on_gap(self, event):
        self.log.append(("gap", event.second_largest, event.largest,
                         event.missing_count))

    def on_window_event(self, reason):
        self.log.append(("window", reason))


# One arrival: where it starts against the stream's frontier, in
# 500-byte units (0 the next new byte, > 0 past a hole, < 0 a
# retransmission, down to stale bytes below the delivery point), its
# payload, its PKT.SEQ step from the largest so far (1 in order, > 1 a
# gap, <= 0 an old number: a hole filled or a duplicate), the time since
# the last arrival, its one-way delay (None: no departure stamp), and
# what follows it.
_ARRIVAL = st.tuples(st.sampled_from((0, 0, 0, 0, 1, 3, -1, -2, -6)),
                     st.sampled_from((500, 1000, 1500)),
                     st.sampled_from((1, 1, 1, 2, 4, 0, -1, -3)),
                     st.sampled_from((0.0, 1e-4, 2e-3, 0.03)),
                     st.sampled_from((None, 0.010, 0.012, 0.008, 0.030)),
                     st.sampled_from(("", "", "", "feedback", "read")))
_RECEIVER_RUN = dict(
    arrivals=st.lists(_ARRIVAL, min_size=1, max_size=50),
    mode=st.sampled_from(("advanced", "naive", "per-packet")),
    auto_drain=st.booleans(),
    rcv_buffer_bytes=st.sampled_from((3000, 12000, 1 << 20)),
    gain=st.sampled_from((0.25, 1.0)),
)


def _receiver(cls, mode, auto_drain, rcv_buffer_bytes, gain):
    sim = Simulator(seed=1, simsan=False)
    rx = cls(sim, RecordingPolicy(), rcv_buffer_bytes=rcv_buffer_bytes,
             auto_drain=auto_drain, timing_mode=mode, owd_ewma_gain=gain)
    rx.delivered = []
    rx.on_deliver(lambda n, now: rx.delivered.append((n, now)))
    return rx


def _fb_fields(fb):
    return tuple(getattr(fb, name) for name in fb.__slots__)


def _sample(s):
    return None if s is None else (s.departure_ts, s.arrival_ts, s.owd)


def receiver_twins(arrivals, mode, auto_drain, rcv_buffer_bytes, gain):
    """Yield ``(real, oracle)`` after every step of one arrival run."""
    real = _receiver(TransportReceiver, mode, auto_drain, rcv_buffer_bytes,
                     gain)
    oracle = _receiver(OracleReceiver, mode, auto_drain, rcv_buffer_bytes,
                       gain)
    # The real receiver hands each raw OWD to its sink; the oracle's
    # tracker is wrapped to record what its on_packet returns.
    real.owd_seen, oracle.owd_seen = [], []
    real.owd_sink = real.owd_seen.append
    tracked = oracle.owd.on_packet
    oracle.owd.on_packet = lambda dep, arr: (
        oracle.owd_seen.append(tracked(dep, arr)) or oracle.owd_seen[-1])
    now, largest, frontier = 0.0, 0, 0
    for offset, length, step, dt, owd, then in arrivals:
        now += dt
        seq = max(0, frontier + offset * 500)
        if offset >= 0:
            frontier = seq + length
        pkt_seq = max(1, largest + step)
        largest = max(largest, pkt_seq)
        for rx in (real, oracle):
            rx.sim.run(until=now)
            pkt = Packet(PacketType.DATA, size=length + HEADER_SIZE,
                         seq=seq, pkt_seq=pkt_seq, payload_len=length)
            pkt.sent_at = None if owd is None else now - owd
            rx.on_packet(pkt)
        yield real, oracle
        if then == "feedback":
            assert _fb_fields(real.build_feedback(
                max_unacked_blocks=2, include_timing=True,
                include_rate=True)) == _fb_fields(oracle.build_feedback(
                    max_unacked_blocks=2, include_timing=True,
                    include_rate=True))
            yield real, oracle
        elif then == "read":
            assert real.read(1200) == oracle.read(1200)
            yield real, oracle


def owd_state(rx):
    owd = rx.owd
    return (owd.smoothed_owd, owd.samples_seen, owd.per_packet_overflow,
            _sample(owd._interval_best), _sample(owd._interval_first),
            [_sample(s) for s in owd._interval_all], rx.owd_seen)


def pkt_seq_state(rx):
    t = rx.pkt_tracker
    return (t.largest_seen, t.received, t.holes(), t.outstanding_holes,
            t.duplicates, rx.stats.gap_events, [e for e in rx.policy.log if e[0] == "gap"])


def rate_state(rx):
    r = rx.rate
    return (r._bytes_in_interval, r._interval_start, r._last_arrival,
            r.last_interval_rate_bps, r.bw_bps(rx.sim.now()))


def reassembly_state(rx):
    iv = rx.intervals
    return (iv.ranges(), iv.covered(), rx.delivered_ptr, vars(rx.stats),
            rx.delivered, rx.policy.log, rx._window_was_low)


@given(**_RECEIVER_RUN)
@settings(max_examples=150, deadline=None)
def test_owd_fold_matches_the_tracker(**run):
    """The receiver's OWD EWMA and interval best / first sample, made
    in place, against ``ReceiverOwdTracker.on_packet`` (per-packet
    mode calls the method on both sides)."""
    for real, oracle in receiver_twins(**run):
        assert owd_state(real) == owd_state(oracle)


@given(**_RECEIVER_RUN)
@settings(max_examples=150, deadline=None)
def test_pkt_seq_fold_matches_the_tracker(**run):
    """The in-order PKT.SEQ counters, made in place, against
    ``PktSeqTracker.on_packet``; gaps, holes and duplicates included."""
    for real, oracle in receiver_twins(**run):
        assert pkt_seq_state(real) == pkt_seq_state(oracle)


@given(**_RECEIVER_RUN)
@settings(max_examples=150, deadline=None)
def test_rate_fold_matches_the_estimator(**run):
    """The rate estimator's interval bytes, made in place, against
    ``ReceiverRateEstimator.on_data``, across interval closes."""
    for real, oracle in receiver_twins(**run):
        assert rate_state(real) == rate_state(oracle)


@given(**_RECEIVER_RUN)
@settings(max_examples=150, deadline=None)
def test_reassembly_fold_matches_add_and_drain(**run):
    """The empty-buffer case in the receiver and ``add_and_drain``
    against ``add``, ``first_missing``, ``covered`` and the drain's
    ``remove_below``: reordering, overlaps, duplicates and stale
    retransmissions below the delivery point, drained or read."""
    for real, oracle in receiver_twins(**run):
        assert reassembly_state(real) == reassembly_state(oracle)


_SPAN = st.tuples(st.integers(0, 40), st.integers(0, 12))


@given(st.lists(st.tuples(st.booleans(), _SPAN, st.integers(0, 40),
                          st.booleans()), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_add_and_drain_matches_add_first_missing_remove_below(ops):
    """``IntervalSet.add_and_drain`` on any set and floor, holes and
    ranges below the floor included, against the three methods."""
    fold, kept = IntervalSet(), IntervalSet()
    for plain, (start, length), floor, drain in ops:
        end = start + length
        if plain:                               # shape the set
            assert fold.add(start, end) == kept.add(start, end)
            continue
        added = kept.add(max(start, floor), end)
        ready = kept.first_missing(floor)
        if drain:
            kept.remove_below(ready)
        assert fold.add_and_drain(start, end, floor, drain) == (
            added, ready, kept.covered())
        assert fold.ranges() == kept.ranges()


# ----------------------------------------------------------------------
# the unfolded sender
# ----------------------------------------------------------------------
class OracleSender:
    """``_try_send`` with its ``_transmit_new`` call and ``_emit`` with
    its ``Pacer.on_sent`` and ``FeedbackValidator.on_data_sent`` calls,
    bound onto a live sender."""

    def _try_send(self) -> None:
        if not self.established or self.closed or self._port is None:
            return
        now = self.sim.clock._now
        # Read once per call: nothing below processes feedback or a
        # timeout, and cwnd_bytes() is a pure state read (cc.base).
        cwnd = self.cc.cwnd_bytes()
        awnd = self.awnd
        window = cwnd if cwnd < awnd else awnd
        pacer = self.pacer
        retx_queue = self.retx_queue
        limit: Optional[str] = None
        while True:
            has_retx = bool(retx_queue) and self._has_retx()
            if has_retx:
                size = self.records[retx_queue[0]].length
            else:
                size = self.mss
                if not self.unlimited and self.pending_bytes < size:
                    size = self.pending_bytes
                    if size <= 0:
                        limit = "app"
                        break
            # Pull/RACK repairs bypass cwnd (the hole itself is throttling
            # the window), but RTO recovery does not: a timeout marks
            # *everything* outstanding lost, so until the first post-RTO
            # byte is acked, retransmissions are clocked by the collapsed
            # window (as Linux's tcp_xmit_retransmit_queue does) — a
            # spurious timeout then costs one retransmission, not a
            # go-back-N storm of duplicates.
            if (self.in_flight + size > window
                    and (not has_retx or self._consecutive_rtos > 0)):
                limit = "rwnd" if awnd < cwnd else "cwnd"
                self._maybe_arm_persist()
                break
            release_at = pacer.release_at
            if now < release_at:
                limit = "pacing"
                timer = self._send_timer
                # An armed timer already due at the release time (its
                # entry's key: it is never moved) is kept, not cancelled
                # and re-pushed.  Equality of one stored float with its
                # own copy, not clock arithmetic:
                if timer is None or timer[0] != release_at:  # reprolint: disable=REP003
                    if timer is not None:
                        self.sim.cancel(timer)
                    self._send_timer = self.sim.call_at(
                        release_at, self._on_send_timer)
                break
            if has_retx:
                self._transmit_retx(retx_queue.popleft(), now)
            else:
                self._transmit_new(size, now)
        # Send-limit classification for the flow doctor: every break
        # above names what throttled the flow; only changes are worth
        # an event.
        if limit != self._limit:
            self._limit = limit
            self._obs("limited", limit=limit)
        if self._rto_timer is None or self.in_flight <= 0:
            self._rearm_rto()

    def _emit(self, rec: SendRecord, now: float) -> None:
        length = rec.length
        pkt = Packet(
            PacketType.DATA,
            size=length + HEADER_SIZE,
            seq=rec.seq,
            pkt_seq=rec.pkt_seq,
            payload_len=length,
            flow_id=self.flow_id,
        )
        pkt.sent_at = now
        if self._san is not None:
            self._san.on_data_sent(self, rec)
        if self.receiver_driven:
            if self.guard is not None:
                # Departure-stamp ground truth for the echo_ts rule:
                # only timestamps recorded here may come back in a TACK.
                self.guard.on_data_sent(now, length)
            # current_rtt_min() read in place (samples are > 0; srtt
            # before the first one).
            rtt_min = self.rtt_min_est.filter.value or self.rtt.smoothed()
            meta = pkt.meta
            meta["rtt_min"] = rtt_min
            # rho' sync for the Eq. (6) adaptive block budget: the
            # sender measures ACK-path loss and tells the receiver.
            meta["ack_loss_rate"] = self.ack_loss.loss_rate
            if self._tel is not None and rtt_min != self._tel_last_rtt_min:
                # Value-change detection, not clock arithmetic: the
                # sync rides every data packet, but only changes are
                # worth an event.
                self._tel_last_rtt_min = rtt_min
                self._tel.emit("timing", "rttmin_sync", self.flow_id,
                               rtt_min_s=rtt_min)
        # Site-local stride counter: this is the sender's hottest
        # telemetry site (one event per data packet), so dropped
        # events must not pay for a collector call.
        if self._tel_stride:
            n = self._tel_n + 1
            if n >= self._tel_stride:
                self._tel_n = 0
                self._tel.emit_kept("transport",
                                    "retx" if rec.retx_count else "send",
                                    self.flow_id, seq=rec.seq,
                                    pkt_seq=rec.pkt_seq, length=length,
                                    in_flight=self.in_flight)
            else:
                self._tel_n = n
        stats = self.stats
        stats.data_packets_sent += 1
        stats.bytes_sent += length
        self.pacer.on_sent(pkt.size, now)
        # The link's verdict feeds the watchdog: only *accepted* sends
        # count as "data still flowing" (a blacked-out link refuses at
        # ingress, so a dead path never looks like ACK withholding).
        if self._port.send(pkt) is not False:
            self._accepts_since_probe += 1


    @classmethod
    def bind(cls, sender):
        sender._try_send = MethodType(cls._try_send, sender)
        sender._emit = MethodType(cls._emit, sender)


# App behaviour: a bulk flow, a total that ends in a short segment, or
# writes of any size at given times (short and app-limited segments).
_APP = st.one_of(
    st.just(("bulk",)),
    st.tuples(st.just("total"), st.integers(1, 120 * MSS)),
    st.tuples(st.just("writes"), st.lists(
        st.tuples(st.floats(0.0, 0.5), st.integers(1, 6 * MSS)),
        min_size=1, max_size=8)),
)
_SENDER_RUN = dict(
    scheme=st.sampled_from(("tcp-tack", "tcp-tack-poor", "tcp-bbr")),
    rate_bps=st.sampled_from((2e6, 20e6)),
    rtt_s=st.sampled_from((0.01, 0.04)),
    drops=st.sets(st.integers(0, 200), max_size=6),
    ack_drops=st.sets(st.integers(0, 60), max_size=3),
    app=_APP,
    events=st.integers(50, 900),
)


def _connection(scheme, rate_bps, rtt_s, drops, ack_drops, app, oracle):
    sim = Simulator(seed=3, simsan=False)
    path = wired_path(sim, rate_bps, rtt_s,
                      forward_loss=PatternLoss(sorted(drops)),
                      reverse_loss=PatternLoss(sorted(ack_drops)))
    conn = make_connection(sim, scheme, initial_rtt_s=rtt_s)
    conn.wire(path.forward, path.reverse)
    if oracle:
        OracleSender.bind(conn.sender)
    if app[0] == "bulk":
        conn.start_bulk()
    elif app[0] == "total":
        conn.start_transfer(app[1])
    else:
        conn.sender.start()
        for at, nbytes in app[1]:
            sim.call_at(at, lambda n=nbytes: conn.sender.write(n))
    return sim, conn.sender


def sender_twins(events, **path):
    """Yield ``(real, oracle)`` senders after every event, in lockstep."""
    (sim_a, real), (sim_b, oracle) = (_connection(**path, oracle=False),
                                      _connection(**path, oracle=True))
    for _ in range(events):
        stepped = sim_a.step()
        assert sim_b.step() == stepped
        assert sim_a.now() == sim_b.now()
        yield real, oracle
        if not stepped:
            return


def new_segment_state(s):
    return ([tuple(getattr(rec, name) for name in SendRecord.__slots__)
             for rec in s.records.values()], s._order, s.pkt_map,
            s.next_seq, s.next_pkt_seq, s.pending_bytes, s.in_flight,
            vars(s.stats))


def pacer_state(s):
    timer = s._send_timer
    return (s.pacer.release_at, s.pacer.rate_bps,
            None if timer is None else s.sim.due(timer))


def stamp_state(s):
    g = s.guard
    return None if g is None else (list(g._stamps), g._stamp_head,
                                   g._stamp_prune_len, g._first_sent_s,
                                   g._min_seg_bytes)


@given(**_SENDER_RUN)
@settings(max_examples=60, deadline=None)
def test_new_segment_fold_matches_transmit_new(**run):
    """``_try_send``'s new segment (counters, the record's stores, the
    index entries) against ``_transmit_new`` and ``SendRecord``."""
    for real, oracle in sender_twins(**run):
        assert new_segment_state(real) == new_segment_state(oracle)


# One departure handed to ``_emit``: the time since the last (0: the
# same instant), its payload (short segments included), and what is
# done to the pacer first (a new rate, or its debt forgiven).
_SEND = st.tuples(st.sampled_from((0.0, 0.0, 1e-6, 1e-3, 0.05, 3.0)),
                  st.sampled_from((MSS, MSS, MSS, 700, 1)),
                  st.sampled_from(("", "", "", "slow", "fast", "forgive")))


class _NullPort:
    def send(self, packet):
        return True


def emit_twins(sends):
    """Yield ``(real, oracle)`` senders after every ``_emit`` of one
    departure sequence."""
    pair = []
    for oracle in (False, True):
        sender = TransportSender(Simulator(seed=1, simsan=False), BBR(),
                                 receiver_driven=True)
        sender.connect(_NullPort())
        if oracle:
            OracleSender.bind(sender)
        pair.append(sender)
    now, seq = 0.0, 0
    for pkt_seq, (dt, length, change) in enumerate(sends, 1):
        now += dt
        for sender in pair:
            if change == "forgive":
                sender.pacer.forgive(now, MSS)
            elif change:
                sender.pacer.set_rate(1e5 if change == "slow" else 1e12)
            sender._emit(SendRecord(seq, length, pkt_seq, now, 0), now)
        seq += length
        yield pair


_SENDS = st.lists(_SEND, min_size=1, max_size=80)


@given(**_SENDER_RUN)
@settings(max_examples=30, deadline=None)
def test_pacer_fold_matches_on_sent(**run):
    """``_emit``'s pacer charge, made in place, against
    ``Pacer.on_sent``: the release time and the send timer after it,
    on whole flows and on departure sequences that change the rate."""
    for real, oracle in sender_twins(**run):
        assert pacer_state(real) == pacer_state(oracle)


@given(_SENDS)
@settings(max_examples=150, deadline=None)
def test_pacer_fold_matches_on_sent_per_departure(sends):
    for real, oracle in emit_twins(sends):
        assert pacer_state(real) == pacer_state(oracle)


@given(**_SENDER_RUN)
@settings(max_examples=30, deadline=None)
def test_stamp_fold_matches_on_data_sent(**run):
    """``_emit``'s departure-stamp append, made in place, against
    ``FeedbackValidator.on_data_sent`` on whole flows: the first
    packet, short segments and prunes go through the method."""
    for real, oracle in sender_twins(**run):
        assert stamp_state(real) == stamp_state(oracle)


@given(_SENDS)
@settings(max_examples=150, deadline=None)
def test_stamp_fold_matches_on_data_sent_per_departure(sends):
    """The same on departure sequences with repeated instants, short
    segments and gaps past the echo window (prunes that drop stamps)."""
    for real, oracle in emit_twins(sends):
        assert stamp_state(real) == stamp_state(oracle)
