"""Property test: the sender's scoreboard against a reference model.

Random feedback sequences (cumulative ACKs, SACK blocks, pulls) are
applied to a sender whose transmissions are captured but never
delivered; a brute-force per-segment reference model tracks what the
sender *should* believe.  Invariants: in-flight accounting never goes
negative or exceeds what was sent, acked bytes are never retransmitted,
and completion fires exactly when everything is covered.

The legacy (``receiver_driven=False``) sender is additionally run in
lockstep with :class:`FullWindowScoreboard`, the per-ACK full-window
SACK walk and RACK sweep the sender used before its scoreboard became
incremental, kept here as the differential oracle.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cc import NewReno
from repro.cc.base import CongestionController
from repro.cc.rack import RackState
from repro.core.loss_detect import RetransmitGovernor
from repro.netsim.engine import Simulator
from repro.netsim.packet import MSS, Packet, PacketType
from repro.transport.feedback import AckFeedback, make_feedback_packet
from repro.transport.guard import GuardConfig
from repro.transport.sender import LOST, TransportSender


class CapturePort:
    def __init__(self):
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)
        return True

    def connect(self, sink):
        pass


def make_sender(total_segments):
    sim = Simulator(seed=1)
    sender = TransportSender(sim, NewReno(), receiver_driven=True)
    port = CapturePort()
    sender.connect(port)
    sender.start()
    syn_ack = Packet(PacketType.SYN_ACK, size=64)
    syn_ack.meta["syn_sent_at"] = 0.0
    sim.call_in(0.01, lambda: sender.on_packet(syn_ack))
    sender.set_total(total_segments * MSS)
    sim.run(until=2.0)
    return sim, sender, port


feedback_steps = st.lists(
    st.tuples(
        st.integers(0, 20),            # cum ack in segments
        st.lists(                      # sack blocks in segment space
            st.tuples(st.integers(0, 19), st.integers(1, 3)),
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=15,
)


@given(feedback_steps)
@settings(max_examples=80, deadline=None)
def test_scoreboard_invariants(steps):
    total = 20
    sim, sender, port = make_sender(total)
    sent_segments = {p.seq // MSS for p in port.sent if p.kind is PacketType.DATA}

    # Reference model: the highest cumulative ack seen so far.  An
    # ack beyond what had been transmitted when the feedback arrived
    # is an optimistic ACK: the feedback guard rejects the field, so
    # the model expects *no* progress from it (not a clamp to sent).
    best_cum = 0
    for cum_seg, sack in steps:
        cum = cum_seg * MSS
        sack_blocks = [
            (s * MSS, min(s + length, total) * MSS) for s, length in sack
        ]
        sent_at_feedback = sender.next_seq
        fb = AckFeedback(cum_ack=cum, awnd=1 << 30, sack_blocks=sack_blocks)
        sender.on_packet(make_feedback_packet(PacketType.TACK, fb))
        sim.run(until=sim.now() + 0.05)
        if sender.aborted is not None:
            # A run of frames naming never-sent ranges escalated the
            # feedback guard (misbehaving_peer): the scoreboard is
            # frozen from here on, which the model does not track.
            break
        if cum <= sent_at_feedback:
            best_cum = max(best_cum, cum)

        # Invariant 1: cum_acked is the max seen, never beyond sent.
        assert sender.cum_acked == best_cum
        assert sender.cum_acked <= sender.next_seq
        # Invariant 2: in-flight within [0, bytes outstanding].
        assert 0 <= sender.in_flight <= sender.next_seq - 0
        # Invariant 3: no record below cum_acked survives.
        assert all(rec.end > sender.cum_acked
                   for rec in sender.records.values())
        # Invariant 4: completion exactly when everything acked.
        if sender.cum_acked >= total * MSS:
            assert sender.completed_at is not None
        else:
            assert sender.completed_at is None


@given(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)),
                min_size=1, max_size=10))
@settings(max_examples=80, deadline=None)
def test_pull_never_retransmits_acked_data(pull_ranges):
    total = 20
    sim, sender, port = make_sender(total)
    # Ack the first half cumulatively.
    fb = AckFeedback(cum_ack=10 * MSS, awnd=1 << 30)
    sender.on_packet(make_feedback_packet(PacketType.TACK, fb))
    sim.run(until=sim.now() + 0.05)
    port.sent.clear()
    for lo, hi in pull_ranges:
        a, b = min(lo, hi), max(lo, hi)
        fb = AckFeedback(cum_ack=10 * MSS, awnd=1 << 30,
                         pull_pkt_range=(a - 1, b + 1))
        sender.on_packet(make_feedback_packet(PacketType.IACK, fb))
        sim.run(until=sim.now() + 0.05)
    # Retransmissions may occur, but never of cumulatively acked bytes.
    for pkt in port.sent:
        if pkt.kind is PacketType.DATA:
            assert pkt.seq >= 10 * MSS


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_block_feedback_conserves_bytes(data):
    """However feedback arrives, delivered + in-flight + lost-marked
    never exceeds what was transmitted."""
    total = 16
    sim, sender, port = make_sender(total)
    for _ in range(data.draw(st.integers(1, 10))):
        cum = data.draw(st.integers(0, total)) * MSS
        blocks = [
            (s * MSS, (s + 1) * MSS)
            for s in data.draw(st.sets(st.integers(0, total - 1), max_size=5))
        ]
        fb = AckFeedback(cum_ack=cum, awnd=1 << 30,
                         sack_blocks=sorted(blocks),
                         unacked_blocks=[])
        sender.on_packet(make_feedback_packet(PacketType.TACK, fb))
        sim.run(until=sim.now() + 0.02)
        assert sender.delivered <= sender.stats.bytes_sent
        assert sender.in_flight >= 0


# ----------------------------------------------------------------------
# differential: incremental scoreboard vs the full-window walks
# ----------------------------------------------------------------------
class FixedWindow(CongestionController):
    """A constant window paced (by default) at about a segment per ms:
    send times differ (RACK compares them) and a repair can wait in
    ``retx_queue`` across feedbacks."""

    def __init__(self, segments, rate_bps=12e6):
        super().__init__()
        self._cwnd = segments * MSS
        self._rate_bps = rate_bps

    def on_feedback(self, sample):
        pass

    def on_rto(self, now):
        pass

    def cwnd_bytes(self):
        return self._cwnd

    def pacing_rate_bps(self):
        return self._rate_bps


class _RefRecord:
    def __init__(self, seq, length, now):
        self.seq, self.length, self.end = seq, length, seq + length
        self.last_sent = now
        self.sacked = self.lost = False

    def in_flight(self):
        return not (self.sacked or self.lost)


class FullWindowScoreboard:
    """The legacy sender's loss bookkeeping as it was: every SACK block
    re-iterates every record under it, and the RACK sweep rescans the
    send order from the first unacked record to the SACK top.  Fed the
    same transmissions, feedback and timeouts as the real sender (and
    the sender's ``srtt``, which is not scoreboard state)."""

    def __init__(self):
        self.records = {}            # seq -> _RefRecord, insertion = seq order
        self.next_seq = 0
        self.cum_acked = 0
        self.in_flight = 0
        self.delivered = 0
        self.retx_queue = []
        self.dup_count = 0
        self.recovery_point = -1
        self.fast_retransmits = 0
        self.rack = RackState()
        self.governor = RetransmitGovernor()

    # -- transmissions seen on the sender's port ------------------------
    def on_emit(self, seq, length, now):
        rec = self.records.get(seq)
        if rec is None:
            assert seq == self.next_seq
            self.records[seq] = _RefRecord(seq, length, now)
            self.next_seq += length
            self.in_flight += length
            return
        assert rec.lost and not rec.sacked, "retransmitted a segment not lost"
        assert self.pending_retx()[0] == seq, "retransmission out of order"
        self.retx_queue.remove(seq)
        rec.lost = False
        rec.last_sent = now
        self.in_flight += length
        self.governor.on_retransmit(seq, now)

    def pending_retx(self):
        return [seq for seq in self.retx_queue
                if seq in self.records and self.records[seq].lost
                and not self.records[seq].sacked]

    # -- the walks ------------------------------------------------------
    def _settle(self, rec, sacked):
        if rec.in_flight():
            self.in_flight -= rec.length
        rec.sacked = sacked
        self.delivered += rec.length
        latest = self.rack.latest_delivered_send_time
        if latest is None or rec.last_sent > latest:
            self.rack.latest_delivered_send_time = rec.last_sent

    def _mark_lost(self, rec, now, srtt, certain=False):
        if not certain and not self.governor.may_retransmit(
                rec.seq, now, 1.5 * srtt):
            return
        if rec.lost:
            return
        if rec.in_flight():
            self.in_flight -= rec.length
        rec.lost = True
        if rec.seq not in self.retx_queue:
            self.retx_queue.append(rec.seq)

    def on_feedback(self, fb, now, srtt):
        cum_ack = min(fb.cum_ack, self.next_seq)
        if cum_ack > self.cum_acked:
            self.cum_acked = cum_ack
            self.dup_count = 0
            for seq in sorted(self.records):
                rec = self.records[seq]
                if rec.end > cum_ack:
                    break
                if not rec.sacked:
                    self._settle(rec, sacked=False)
                del self.records[seq]
                self.governor.on_acked(seq)
        elif fb.cum_ack == self.cum_acked:
            if fb.sack_blocks or self.in_flight > 0:
                self.dup_count += 1
        for start, end in fb.sack_blocks:
            for seq in sorted(self.records):
                rec = self.records[seq]
                if not rec.sacked and rec.seq >= start and rec.end <= end:
                    self._settle(rec, sacked=True)
        if self.dup_count >= 3 and self.cum_acked > self.recovery_point:
            first = next((self.records[seq] for seq in sorted(self.records)
                          if self.records[seq].in_flight()), None)
            if first is not None:
                self._mark_lost(first, now, srtt)
                self.recovery_point = self.next_seq
                self.fast_retransmits += 1
                self.dup_count = 0
        if fb.sack_blocks:
            sack_top = max(end for _, end in fb.sack_blocks)
            for seq in sorted(self.records):
                if seq >= sack_top:
                    break
                rec = self.records[seq]
                if rec.in_flight() and self.rack.is_lost(rec.last_sent,
                                                         srtt, now):
                    self._mark_lost(rec, now, srtt)

    def on_rto(self, now):
        for seq in sorted(self.records):
            rec = self.records[seq]
            if rec.in_flight():
                self.governor.on_acked(seq)
                self._mark_lost(rec, now, 0.0, certain=True)


class Lockstep:
    """A legacy sender on a capture port and the oracle beside it."""

    RTO = object()      # marker in the port log: the mark-all ran here

    def __init__(self, window_segments, rate_bps=12e6, handshake_s=0.01):
        self.sim = Simulator(seed=1, simsan=True)
        # Guard off: optimistic, unaligned and never-sent ranges must
        # reach the scoreboard itself, not be filtered in front of it.
        self.sender = TransportSender(
            self.sim, FixedWindow(window_segments, rate_bps),
            guard=GuardConfig(enabled=False))
        self.port = CapturePort()
        self.sender.connect(self.port)
        # Timers look the handler up when they are armed, so this sees
        # every timeout; the marker goes in front of the repairs the
        # timeout itself sends.
        real_on_rto = self.sender._on_rto

        def on_rto():
            at, before = len(self.port.sent), self.sender.stats.rtos
            real_on_rto()
            if self.sender.stats.rtos > before and self.sender.aborted is None:
                self.port.sent.insert(at, self.RTO)

        self.sender._on_rto = on_rto
        self.sender.start()
        syn_ack = Packet(PacketType.SYN_ACK, size=64)
        syn_ack.meta["syn_sent_at"] = 0.0
        # The handshake is the first RTT sample: srtt starts at it.
        self.sim.call_in(handshake_s, lambda: self.sender.on_packet(syn_ack))
        self.sender.set_unlimited()
        self.ref = FullWindowScoreboard()
        self._seen = 0
        self.run(handshake_s + 0.04)

    def _sync(self):
        """Replay onto the oracle, in order, what the sender did since
        the last call, then compare the two ledgers.  The oracle
        asserts that every retransmission is the head of *its* queue,
        so the newly-lost set matches in content and order."""
        sender, ref = self.sender, self.ref
        for item in self.port.sent[self._seen:]:
            if item is self.RTO:
                ref.on_rto(self.sim.now())
            elif item.kind is PacketType.DATA:
                ref.on_emit(item.seq, item.payload_len, item.sent_at)
        self._seen = len(self.port.sent)
        assert ([seq for seq in sender.retx_queue
                 if seq in sender.records
                 and sender.records[seq].state == LOST]
                == ref.pending_retx())
        assert sender.in_flight == ref.in_flight
        assert sender.delivered == ref.delivered
        assert sender.cum_acked == ref.cum_acked
        assert sender.stats.fast_retransmits == ref.fast_retransmits
        self.sim.san.check_sender_ledger(sender)

    def feed(self, fb):
        self.sender.on_packet(make_feedback_packet(PacketType.ACK, fb))
        self.ref.on_feedback(fb, self.sim.now(), self.sender.rtt.smoothed())
        self._sync()

    def run(self, duration_s):
        self.sim.run(until=self.sim.now() + duration_s)
        self._sync()

    def run_to_rto(self):
        """Stop within a millisecond of the next timeout, while most of
        what it marked lost still waits for its paced repair."""
        rtos = self.sender.stats.rtos
        for _ in range(5000):
            if self.sender.stats.rtos > rtos or self.sender.aborted:
                break
            self.run(0.001)


WINDOW = 24

legacy_steps = st.lists(
    st.one_of(
        # feedback: cum ack and SACK blocks in half-segment units, so
        # some edges are unaligned; blocks may repeat, shrink, reorder
        # and name bytes never sent.
        st.tuples(st.just("fb"), st.integers(0, 2 * WINDOW),
                  st.lists(st.tuples(st.integers(0, 3 * WINDOW),
                                     st.integers(1, 2 * WINDOW)),
                           max_size=3)),
        # the same feedback again: duplicate SACKs, dupACK counting
        st.tuples(st.just("dup")),
        # the last feedback's blocks again, each edge kept or moved by up
        # to a segment: identical blocks beside ones that only overlap
        # them, such as a block grown past the record its old edge
        # straddled
        st.tuples(st.just("again"),
                  st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           max_size=3)),
        # time passing: RACK deadlines and paced repairs
        st.tuples(st.just("wait"), st.sampled_from([0.002, 0.03])),
        # the RTO mark-all
        st.tuples(st.just("rto")),
    ),
    min_size=1, max_size=30,
)


def _run_window_steps(steps):
    pair = Lockstep(WINDOW)
    last = AckFeedback(cum_ack=0, awnd=1 << 30)
    for step in steps:
        if pair.sender.aborted is not None:
            break
        if step[0] == "wait":
            pair.run(step[1])
            continue
        if step[0] == "rto":
            pair.run_to_rto()
            continue
        if step[0] == "fb":
            _, cum_half, blocks = step
            last = AckFeedback(
                cum_ack=cum_half * MSS // 2, awnd=1 << 30,
                sack_blocks=[(s * MSS // 2, (s + n) * MSS // 2)
                             for s, n in blocks])
        elif step[0] == "again":
            moved = [(max(0, s + ds * MSS // 2), e + de * MSS // 2)
                     for (s, e), (ds, de) in zip(last.sack_blocks, step[1])]
            last = AckFeedback(
                cum_ack=last.cum_ack, awnd=1 << 30,
                sack_blocks=moved + last.sack_blocks[len(moved):])
        pair.feed(last)


BURST_WINDOW = 480


@st.composite
def burst_loss_schedules(draw):
    """A burst loss under a 480-segment window: runs of one or two lost
    segments between single SACKed ones (at least 200 holes), three
    SACKed segments per ACK, all before the first RACK deadline.  Then
    rounds of time passing and one feedback: a duplicate (deadlines
    pass, repairs go out and are in flight again), a SACK of the newest
    segments (which puts the repairs behind a delivered later send, so
    they come due while the governor still holds them), cumulative
    progress, or an RTT sample first (an ``srtt`` that shrinks or grows
    while repairs are held back); and perhaps one timeout."""
    blocks, seg = [], 0
    while seg < BURST_WINDOW - 3:
        seg += draw(st.integers(1, 2))
        blocks.append((seg * MSS, (seg + 1) * MSS))
        seg += 1
    rounds = draw(st.lists(st.tuples(
        st.sampled_from([0.001, 0.004, 0.012]),
        st.one_of(st.tuples(st.just("dup")),
                  st.tuples(st.just("top"), st.integers(1, 4)),
                  st.tuples(st.just("cum"), st.integers(1, 4)),
                  st.tuples(st.just("rtt"), st.sampled_from([0.005, 0.02,
                                                             0.08])))),
        min_size=20, max_size=50))
    return blocks, rounds, draw(st.integers(0, 80))


def _run_burst_loss(schedule):
    blocks, rounds, rto_round = schedule
    # srtt 50 ms from the handshake; the window is out in 48 ms.
    pair = Lockstep(BURST_WINDOW, rate_bps=120e6, handshake_s=0.05)
    pair.run(0.01)
    sender = pair.sender
    assert sender.next_seq == BURST_WINDOW * MSS
    for i in range(0, len(blocks), 3):
        last = AckFeedback(cum_ack=0, awnd=1 << 30,
                           sack_blocks=blocks[i:i + 3])
        pair.feed(last)
    assert len(sender._holes) >= 200
    for n, (wait_s, step) in enumerate(rounds):
        if sender.aborted is not None:
            break
        if n == rto_round:
            pair.run_to_rto()
        pair.run(wait_s)
        if step[0] == "rtt":
            sender.rtt.on_sample(step[1])
        elif step[0] == "top":
            top = sender.next_seq
            last = AckFeedback(cum_ack=sender.cum_acked, awnd=1 << 30,
                               sack_blocks=[(top - step[1] * MSS, top)])
        elif step[0] == "cum":
            last = AckFeedback(cum_ack=sender.cum_acked + step[1] * MSS,
                               awnd=1 << 30, sack_blocks=last.sack_blocks)
        pair.feed(last)


# One input strategy, two kinds of schedule.  A burst loss costs as
# much as a dozen window-24 step lists, so it is drawn for one value in
# eight; hypothesis mutates the examples it has, which makes that 15-45
# of the 150 in practice, for about the wall time of 150 window-24 lists
# and 25 burst losses run apart.
differential_inputs = st.integers(0, 7).flatmap(
    lambda k: (st.tuples(st.just("burst"), burst_loss_schedules()) if k == 7
               else st.tuples(st.just("window"), legacy_steps)))


@given(differential_inputs)
@example(("window", [
    # [3000, 5250) settles one record; [4500, 6000) straddles its end
    ("wait", 0.03), ("fb", 0, [(4, 3)]),
    ("again", [(0, 0)]),        # identical: nothing to settle
    ("again", [(0, 1)]),        # grown past the straddled record
    ("again", []), ("wait", 0.03), ("dup",)]))
@settings(max_examples=150, deadline=None)
def test_incremental_scoreboard_matches_full_window_walks(case):
    kind, schedule = case
    (_run_burst_loss if kind == "burst" else _run_window_steps)(schedule)
