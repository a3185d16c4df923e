"""Property test: the sender's scoreboard against a reference model.

Random feedback sequences (cumulative ACKs, SACK blocks, pulls) are
applied to a sender whose transmissions are captured but never
delivered; a brute-force per-segment reference model tracks what the
sender *should* believe.  Invariants: in-flight accounting never goes
negative or exceeds what was sent, acked bytes are never retransmitted,
and completion fires exactly when everything is covered.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import NewReno
from repro.netsim.engine import Simulator
from repro.netsim.packet import MSS, Packet, PacketType
from repro.transport.feedback import AckFeedback, make_feedback_packet
from repro.transport.sender import TransportSender


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
