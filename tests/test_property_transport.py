"""Property-based tests over the transport machinery (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loss_detect import PktSeqTracker
from repro.core.owd_timing import ReceiverOwdTracker
from repro.netsim.engine import Simulator
from repro.netsim.packet import MSS, make_data_packet
from repro.ack import DelayedAck, PerPacketAck
from repro.transport.receiver import TransportReceiver


class _NullPort:
    def send(self, packet):
        return True

    def connect(self, sink):
        pass


@given(st.permutations(list(range(12))))
@settings(max_examples=60, deadline=None)
def test_reassembly_delivers_everything_once(order):
    """Any arrival permutation of 12 segments yields exactly the full
    stream, delivered in order."""
    sim = Simulator(seed=1)
    rx = TransportReceiver(sim, PerPacketAck())
    rx.connect(_NullPort())
    delivered = []
    rx.on_deliver(lambda n, t: delivered.append(n))
    for idx in order:
        pkt = make_data_packet(idx * MSS, idx + 1)
        pkt.sent_at = 0.0
        rx.on_packet(pkt)
    assert sum(delivered) == 12 * MSS
    assert rx.delivered_ptr == 12 * MSS
    assert rx.holb_blocked_bytes() == 0


@given(st.permutations(list(range(12))), st.sets(st.integers(0, 11)))
@settings(max_examples=60, deadline=None)
def test_reassembly_with_duplicates(order, dup_set):
    """Duplicates never inflate delivery."""
    sim = Simulator(seed=1)
    rx = TransportReceiver(sim, PerPacketAck())
    rx.connect(_NullPort())
    schedule = list(order) + [i for i in order if i in dup_set]
    pkt_seq = 1
    for idx in schedule:
        pkt = make_data_packet(idx * MSS, pkt_seq)
        pkt.sent_at = 0.0
        pkt_seq += 1
        rx.on_packet(pkt)
    assert rx.delivered_ptr == 12 * MSS
    assert rx.stats.bytes_delivered == 12 * MSS


def _delayed_ack_receiver(rcv_buffer_bytes, auto_drain):
    sim = Simulator(seed=1)
    policy = DelayedAck()
    rx = TransportReceiver(sim, policy, rcv_buffer_bytes=rcv_buffer_bytes,
                           auto_drain=auto_drain)
    rx.connect(_NullPort())
    return rx, policy


# Segment index to deliver, then bytes the application reads (slow-reader
# mode only); small buffers drive the advertised window to zero.
_ARRIVALS = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 4 * MSS)),
                     min_size=1, max_size=40)
_RECEIVERS = dict(rcv_buffer_bytes=st.sampled_from((2 * MSS, 6 * MSS, 1 << 20)),
                  auto_drain=st.booleans())


@given(arrivals=_ARRIVALS, **_RECEIVERS)
@settings(max_examples=150, deadline=None)
def test_awnd_matches_build_feedback(arrivals, rcv_buffer_bytes, auto_drain):
    """build_feedback computes the advertised window in place; it must
    equal ``awnd()`` after every arrival and read."""
    rx, _ = _delayed_ack_receiver(rcv_buffer_bytes, auto_drain)
    for pkt_seq, (idx, read) in enumerate(arrivals, 1):
        pkt = make_data_packet(idx * MSS, pkt_seq)
        pkt.sent_at = 0.0
        rx.on_packet(pkt)
        assert rx.build_feedback().awnd == rx.awnd()
        if not auto_drain:
            rx.read(read)
            assert rx.build_feedback().awnd == rx.awnd()


@given(arrivals=_ARRIVALS, **_RECEIVERS)
@settings(max_examples=150, deadline=None)
def test_holb_matches_delayed_ack_hole_check(arrivals, rcv_buffer_bytes,
                                             auto_drain):
    """DelayedAck reads "out-of-order data still queued" off the
    interval set in place; it must agree with ``holb_blocked_bytes()``."""
    rx, policy = _delayed_ack_receiver(rcv_buffer_bytes, auto_drain)
    for pkt_seq, (idx, read) in enumerate(arrivals, 1):
        pkt = make_data_packet(idx * MSS, pkt_seq)
        pkt.sent_at = 0.0
        rx.on_packet(pkt)
        assert policy._fills_hole() == (rx.holb_blocked_bytes() > 0)
        if not auto_drain:
            rx.read(read)
            assert policy._fills_hole() == (rx.holb_blocked_bytes() > 0)


@given(st.lists(st.integers(1, 100), min_size=1, max_size=100, unique=True))
@settings(max_examples=100)
def test_pkt_tracker_holes_match_brute_force(arrivals):
    t = PktSeqTracker()
    for p in sorted(arrivals):
        t.on_packet(p)
    first, largest = min(arrivals), max(arrivals)
    # Holes before the first arrival are never counted (the tracker
    # treats the first packet as the numbering baseline).
    expected_holes = {p for p in range(first + 1, largest) if p not in set(arrivals)}
    assert t.outstanding_holes == len(expected_holes)
    assert t.largest_seen == largest


class _HoleSetModel:
    """``PktSeqTracker``'s hole ledger kept as a set of packet numbers."""

    def __init__(self):
        self.largest_seen = 0
        self.holes: set[int] = set()
        self.duplicates = 0

    def on_packet(self, pkt_seq):
        """Record an arrival; returns the gap's ``(second_largest,
        largest)`` or None."""
        if pkt_seq <= self.largest_seen:
            if pkt_seq in self.holes:
                self.holes.discard(pkt_seq)
            else:
                self.duplicates += 1
            return None
        gap = None
        if pkt_seq > self.largest_seen + 1 and self.largest_seen > 0:
            gap = (self.largest_seen, pkt_seq)
            self.holes.update(range(self.largest_seen + 1, pkt_seq))
        self.largest_seen = pkt_seq
        return gap


@given(arrivals=st.lists(st.integers(-3, 150), min_size=1, max_size=120),
       ranges=st.lists(st.tuples(st.integers(0, 160), st.integers(0, 30)),
                       min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_pkt_tracker_hole_ledger_matches_a_set(arrivals, ranges):
    """Shuffled arrivals, duplicates and numbers <= 0 included: after
    each one the byte-map ledger agrees with a set of holes on the gap
    it reports, the hole count, the loss rate, the duplicates, the hole
    numbers and ``any_missing`` over random inclusive ranges."""
    t, model = PktSeqTracker(), _HoleSetModel()
    for p in arrivals:
        ev = t.on_packet(p)
        gap = model.on_packet(p)
        assert (None if ev is None else (ev.second_largest, ev.largest)) == gap
        holes = model.holes
        assert t.largest_seen == model.largest_seen
        assert t.outstanding_holes == len(holes)
        assert t.loss_rate() == (len(holes) / model.largest_seen
                                 if model.largest_seen else 0.0)
        assert t.duplicates == model.duplicates
        assert t.holes() == sorted(holes)
        for lo, width in ranges:
            assert t.any_missing(lo, lo + width) == any(
                q in holes for q in range(lo, lo + width + 1))


@given(st.lists(st.integers(1, 60), min_size=2, max_size=60, unique=True))
@settings(max_examples=100)
def test_gap_events_cover_every_hole_exactly_once(arrivals):
    """Ascending arrivals: the union of gap-event ranges equals the
    hole set, with no overlaps."""
    t = PktSeqTracker()
    reported = []
    for p in sorted(arrivals):
        ev = t.on_packet(p)
        if ev is not None:
            lo, hi = ev.missing_range()
            reported.extend(range(lo, hi + 1))
    first = min(arrivals)
    largest = max(arrivals)
    expected = [p for p in range(first + 1, largest) if p not in set(arrivals)]
    assert sorted(reported) == expected
    assert len(set(reported)) == len(reported)


@given(st.lists(st.tuples(st.floats(0, 10), st.floats(0.001, 1.0)),
                min_size=1, max_size=100))
@settings(max_examples=100)
def test_owd_reference_is_interval_minimum(pairs):
    """Advanced mode picks exactly the min-OWD packet of the interval."""
    tracker = ReceiverOwdTracker(mode="advanced")
    best = None
    t_now = 0.0
    for depart, owd in pairs:
        t_now += 0.01
        arrival = depart + owd
        tracker.on_packet(depart, arrival)
        if best is None or owd < best:
            best = owd
    ref = tracker.take_reference()
    assert ref is not None
    assert abs(ref.owd - best) < 1e-12


class _EagerOwdTracker:
    """Reference: one sample per packet, kept or not (what the tracker
    did before it built samples lazily)."""

    def __init__(self, mode):
        self.mode = mode
        self.samples = []
        self.kept = []
        self.overflow = 0

    def on_packet(self, departure_ts, arrival_ts):
        sample = (departure_ts, arrival_ts, arrival_ts - departure_ts)
        self.samples.append(sample)
        if self.mode == "per-packet":
            if len(self.kept) < ReceiverOwdTracker.MAX_PER_PACKET_ENTRIES:
                self.kept.append(sample)
            else:
                self.overflow += 1

    def take_reference(self):
        samples, self.samples = self.samples, []
        if not samples:
            return None
        if self.mode == "naive":
            return samples[0]
        return min(samples, key=lambda sample: sample[2])  # first minimum

    def take_all_samples(self, now):
        kept, self.kept = self.kept, []
        return [(departure, now - arrival) for departure, arrival, _ in kept]


@given(st.sampled_from(["advanced", "naive", "per-packet"]),
       st.lists(st.one_of(
           st.tuples(st.floats(0, 10), st.sampled_from(
               [0.001, 0.002, 0.005, 0.01, 0.3])),  # ties in OWD included
           st.just("take")), max_size=60),
       st.integers(0, 140))
@settings(max_examples=150)
def test_lazy_owd_tracker_matches_eager_reference(mode, steps, burst):
    """Whatever is taken from the tracker equals what a tracker that
    builds a sample for every packet would hand out — in every mode,
    across interval boundaries and past the per-packet entry cap."""
    tracker, eager = ReceiverOwdTracker(mode=mode), _EagerOwdTracker(mode)
    steps = steps + [(1.0, 0.004)] * burst + ["take"]
    for step in steps:
        if step == "take":
            ref, want = tracker.take_reference(), eager.take_reference()
            assert (ref is None) == (want is None)
            if ref is not None:
                assert (ref.departure_ts, ref.arrival_ts, ref.owd) == want
            assert tracker.take_all_samples(20.0) == eager.take_all_samples(20.0)
        else:
            departure, owd = step
            for side in (tracker, eager):
                side.on_packet(departure, departure + owd)
    assert tracker.per_packet_overflow == eager.overflow
    assert tracker.samples_seen == sum(step != "take" for step in steps)


@given(st.integers(1, 40), st.integers(0, 39))
@settings(max_examples=60, deadline=None)
def test_single_drop_any_position_recovers(total_mss, drop_idx):
    """Drop any one packet of a short TACK transfer; it must complete
    without RTO (IACK pull or tail flush handles it)."""
    from repro.netsim.loss import PatternLoss
    import sys
    sys.path.insert(0, "tests")
    from conftest import build_wired_connection

    if drop_idx >= total_mss:
        drop_idx = total_mss - 1
    sim = Simulator(seed=3)
    conn, _ = build_wired_connection(
        sim, "tcp-tack", rate_bps=20e6, rtt_s=0.02,
        forward_loss=PatternLoss([drop_idx]),
        queue_bytes=500_000,
    )
    conn.start_transfer(total_mss * MSS)
    sim.run(until=20.0)
    assert conn.completed
    assert conn.receiver.stats.bytes_delivered == total_mss * MSS
