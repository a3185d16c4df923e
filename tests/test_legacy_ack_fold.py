"""Twin tests for the legacy ACK written in one pass.

``TransportReceiver.send_ack`` writes a plain ``ACK`` itself: the
cumulative point, the advertised window and the SACK slice read off the
interval set in place, the frame and the packet built without their
``__init__``, the counters and the plane hooks in place.  The pair it
replaces, ``build_feedback(max_sack_blocks=k)`` then
``emit_feedback(PacketType.ACK, fb)``, stays (TACK and IACK use it) and
is the oracle here: every slot of the frame and of the packet, the uid
drawn, the receiver's counters, ``_fb_seq_next`` and what the ProbeBus
and the energy ledger saw must agree after every step.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.netsim.packet as packet_module
from repro.ack.base import AckPolicy
from repro.core.flavors import make_connection
from repro.energy.ledger import EnergyLedger
from repro.netsim.engine import Simulator
from repro.netsim.loss import PatternLoss
from repro.netsim.packet import MSS, Packet, PacketType, make_data_packet
from repro.netsim.paths import wired_path
from repro.telemetry.bus import ProbeBus
from repro.transport.feedback import AckFeedback
from repro.transport.receiver import TransportReceiver


class _Port:
    """Records every packet; refuses the ones whose index is in ``refuse``."""

    def __init__(self, refuse=frozenset()):
        self.sent = []
        self.refuse = refuse

    def send(self, pkt):
        self.sent.append(pkt)
        return len(self.sent) - 1 not in self.refuse


def _oracle_send_ack(receiver, max_sack_blocks):
    receiver.emit_feedback(PacketType.ACK,
                           receiver.build_feedback(max_sack_blocks=max_sack_blocks))


def _frame(pkt):
    """Every slot of a feedback packet and of its frame, the uid aside."""
    fb = pkt.meta["fb"]
    assert type(fb) is AckFeedback and list(pkt.meta) == ["fb"]
    return ({slot: getattr(pkt, slot) for slot in Packet.__slots__
             if slot not in ("uid", "meta")},
            {slot: getattr(fb, slot) for slot in AckFeedback.__slots__})


def _endpoint(sim, auto_drain, rcv_buffer_bytes, port, planes):
    receiver = TransportReceiver(sim, AckPolicy(), auto_drain=auto_drain,
                                 rcv_buffer_bytes=rcv_buffer_bytes)
    if port is not None:
        receiver.connect(port)
    events = []
    if planes:
        receiver._bus = ProbeBus(sim.clock)
        receiver._bus.subscribe(
            lambda *event: events.append((*event[:4], dict(event[4]))))
        receiver._en = EnergyLedger()
    return receiver, events


_STEPS = st.lists(st.one_of(
    st.tuples(st.just("data"), st.integers(0, 40), st.integers(1, 3)),
    st.tuples(st.just("read"), st.integers(0, 6 * MSS)),
    st.tuples(st.just("ack"), st.integers(0, 5))), max_size=60)


_HOLED = [("data", 2 * k, 1) for k in range(1, 7)] + [("ack", 5), ("ack", 4)]


@settings(max_examples=300, deadline=None)
@example(steps=_HOLED, auto_drain=True, planes=True, port_mode="refuse",
         refuse=frozenset({1}), rcv_buffer_bytes=4 * MSS)
@example(steps=[("data", 0, 2)] + _HOLED + [("read", MSS)], auto_drain=False,
         planes=True, port_mode="accept", refuse=frozenset(), rcv_buffer_bytes=1 << 22)
@given(steps=_STEPS, auto_drain=st.booleans(), planes=st.booleans(),
       port_mode=st.sampled_from(["none", "accept", "refuse"]),
       refuse=st.frozensets(st.integers(0, 30)),
       rcv_buffer_bytes=st.sampled_from([4 * MSS, 40 * MSS, 1 << 22]))
def test_send_ack_matches_build_and_emit(steps, auto_drain, planes, port_mode,
                                         refuse, rcv_buffer_bytes):
    """Empty and holed buffers, draining or not, 0-5 SACK blocks (past
    ``FREE_BLOCKS``), planes on and off, no port, a port that refuses."""
    sim = Simulator(seed=1, simsan=False)
    ports = [None, None] if port_mode == "none" else [
        _Port(refuse if port_mode == "refuse" else frozenset()) for _ in range(2)]
    (real, real_events), (oracle, oracle_events) = (
        _endpoint(sim, auto_drain, rcv_buffer_bytes, port, planes) for port in ports)
    pkt_seq = 0
    for t, step in enumerate(steps + [("ack", 3)]):
        sim.run(until=0.001 * (t + 1))
        if step[0] == "data":
            _, index, count = step
            for rx in (real, oracle):
                pkt = make_data_packet(index * MSS, pkt_seq, count * MSS)
                pkt.sent_at = sim.now() - 0.01
                rx.on_packet(pkt)
            pkt_seq += 1
        elif step[0] == "read":
            assert real.read(step[1]) == oracle.read(step[1])
        else:
            uids = [next(packet_module._packet_uid)]
            real.send_ack(step[1])
            uids.append(next(packet_module._packet_uid))
            _oracle_send_ack(oracle, step[1])
            uids.append(next(packet_module._packet_uid))
            # One uid drawn by each, or none by either.
            assert uids[1] - uids[0] == uids[2] - uids[1] in (1, 2)
            if ports[0] is not None:
                assert ports[0].sent[-1].uid == uids[0] + 1
                assert ports[1].sent[-1].uid == uids[1] + 1
        assert vars(real.stats) == vars(oracle.stats)
        assert real._fb_seq_next == oracle._fb_seq_next
        assert real_events == oracle_events
        if planes:
            assert real._en._flows[0].feedback_bytes == oracle._en._flows[0].feedback_bytes
    if ports[0] is None:
        assert real._fb_seq_next == 0 and real.stats.acks_sent == 0
        return
    assert [_frame(p) for p in ports[0].sent] == [_frame(p) for p in ports[1].sent]
    assert len(ports[0].sent) == real.stats.acks_sent > 0
    if planes:
        assert real._en._flows[0].feedback_bytes == sum(p.size for p in ports[0].sent)
        assert len(real_events) == real.stats.acks_sent


def _legacy_flow(scheme, oracle):
    """A lossy wired flow of a legacy scheme; every ACK it sends, with
    ``send_ack`` or the oracle pair writing them."""
    sim = Simulator(seed=3, simsan=False)
    path = wired_path(sim, 20e6, 0.03, forward_loss=PatternLoss(range(40, 1 << 20, 97)),
                      reverse_loss=PatternLoss(range(7, 1 << 20, 31)))
    conn = make_connection(sim, scheme, initial_rtt_s=0.03)
    conn.wire(path.forward, path.reverse)
    if oracle:
        conn.receiver.send_ack = lambda k: _oracle_send_ack(conn.receiver, k)
    sent = []
    port = conn.receiver._port

    class Capture:
        def send(self, pkt):
            if pkt.kind is PacketType.ACK:
                sent.append(_frame(pkt))
            return port.send(pkt)

    conn.receiver.connect(Capture())
    conn.start_bulk()
    sim.run(until=1.0)
    return sent, vars(conn.receiver.stats), vars(conn.sender.stats), sim.events_fired


def test_legacy_policies_send_what_build_and_emit_sent():
    """Delayed, byte-counting, per-packet and periodic ACKs, through
    ``send_ack``: the same frames, counters and events as through the
    pair it folds."""
    for scheme in ("tcp-bbr", "tcp-reno", "tcp-bbr-l4", "tcp-bbr-perpacket",
                   "tcp-bbr-periodic"):
        real = _legacy_flow(scheme, oracle=False)
        assert len(real[0]) > 30 and real[2]["retransmissions"] > 0
        assert real == _legacy_flow(scheme, oracle=True)
