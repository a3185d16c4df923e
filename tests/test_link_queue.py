"""Unit tests for queues, links, pipes, and the WAN emulator."""

import pytest

from repro.netsim.emulator import EmulatedPath, PathConfig
from repro.netsim.engine import Simulator
from repro.netsim.link import DropTailQueue, Link, LinkConfig
from repro.netsim.loss import BernoulliLoss, PatternLoss
from repro.netsim.packet import make_ack_packet, make_data_packet
from repro.netsim.pipe import Pipe

from callcount import calls_by_package, per_packet


class TestDropTail:
    """The drop-tail rule as ``Link.send`` applies it: a packet that
    finds the transmitter idle goes straight onto the wire (counted as
    enqueued and in the peak, never in the waiting bytes); the rest
    wait behind it within the byte capacity."""

    # 1518 B at 1.2144 Mbit/s: 10 ms on the wire.
    RATE_BPS = 1518 * 8 / 0.01

    def slow_link(self, sim, capacity=None, got=None):
        return Link(sim, LinkConfig(rate_bps=self.RATE_BPS, delay_s=0.0,
                                    queue_bytes=capacity),
                    sink=None if got is None else got.append)

    def test_fifo_order(self, sim):
        got = []
        link = self.slow_link(sim, got=got)
        packets = [make_data_packet(i * 1500, i + 1) for i in range(3)]
        for packet in packets:
            assert link.send(packet)
        sim.run()
        assert got == packets
        assert link.queue.settle(sim.now()) == 0 and not link.queue.waiting

    def test_byte_capacity_enforced(self, sim):
        link = self.slow_link(sim, capacity=3000)
        assert link.send(make_data_packet(0, 1))        # on the wire
        assert link.send(make_data_packet(1500, 2))     # 1518 B waiting
        assert not link.send(make_data_packet(3000, 3))  # would be 3036 B
        assert link.queue.drops == 1 and link.packets_lost == 1

    def test_bytes_tracked(self, sim):
        link = self.slow_link(sim)
        link.send(make_data_packet(0, 1))
        assert link.queue.settle(sim.now()) == 0
        link.send(make_data_packet(1500, 2))
        assert link.queue.settle(sim.now()) == 1518
        sim.run(until=0.015)         # the first is serialized at 10 ms
        assert link.queue.settle(sim.now()) == 0 and not link.queue.waiting

    def test_peak_tracked(self, sim):
        link = self.slow_link(sim)
        link.send(make_data_packet(0, 1))
        assert (link.queue.peak_bytes, link.queue.enqueued) == (1518, 1)
        for i in range(1, 4):
            link.send(make_data_packet(i * 1500, i + 1))
        sim.run()
        assert link.queue.peak_bytes == 3 * 1518
        assert link.queue.enqueued == 4

    def test_a_packet_starting_now_has_started(self, sim):
        """The tie rule: at the instant a waiting packet starts, its
        bytes no longer count as queued (no event clocks it out, so
        the order of that instant's events cannot matter)."""
        link = self.slow_link(sim, capacity=2 * 1518 - 1)
        seen = []

        def at_start():
            seen.append(link.queue.settle(sim.now()))
            seen.append(link.send(make_data_packet(3000, 3)))

        # The instant the first finishes and the second starts, due
        # before anything the link schedules.
        sim.call_at(1518 * 8.0 / link.config.rate_bps, at_start)
        assert link.send(make_data_packet(0, 1))         # on the wire
        assert link.send(make_data_packet(1500, 2))      # 1518 B waiting
        sim.run()
        assert seen == [0, True] and link.queue.drops == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_bytes=0)

    def test_overflow_accounting(self, sim):
        # A rejected packet must not perturb any occupancy accounting:
        # not enqueued, not counted in bytes/peak, and the queue still
        # accepts a later packet that fits.
        link = self.slow_link(sim, capacity=3200)
        q = link.queue
        assert link.send(make_data_packet(0, 1))          # on the wire
        assert link.send(make_data_packet(1500, 2))       # 1518B
        assert link.send(make_data_packet(3000, 3))       # 3036B
        assert not link.send(make_data_packet(4500, 4))   # would be 4554B
        assert q.drops == 1
        assert q.enqueued == 3
        assert q.settle(sim.now()) == 2 * 1518
        assert q.peak_bytes == 2 * 1518
        assert len(q.waiting) == 2
        sim.run(until=0.015)          # the second is now on the wire
        ack = make_ack_packet()  # small enough to fit now
        assert link.send(ack)
        assert q.enqueued == 4
        assert q.drops == 1

    def test_packet_larger_than_the_capacity_is_dropped_at_an_idle_link(self, sim):
        link = self.slow_link(sim, capacity=1000)
        assert not link.send(make_data_packet(0, 1))
        assert (link.queue.drops, link.queue.enqueued, link.queue.peak_bytes,
                sim.pending()) == (1, 0, 0, 0)


class TestLink:
    def test_serialization_plus_propagation(self, sim):
        got = []
        link = Link(sim, LinkConfig(rate_bps=12e6, delay_s=0.01),
                    sink=lambda p: got.append(sim.now()))
        link.send(make_data_packet(0, 1))  # 1518B at 12Mbps = 1.012ms
        sim.run()
        assert got[0] == pytest.approx(0.001012 + 0.01)

    def test_back_to_back_serialization(self, sim):
        got = []
        link = Link(sim, LinkConfig(rate_bps=12e6, delay_s=0.0),
                    sink=lambda p: got.append(sim.now()))
        for i in range(3):
            link.send(make_data_packet(i * 1500, i + 1))
        sim.run()
        spacing = got[1] - got[0]
        assert spacing == pytest.approx(1518 * 8 / 12e6)

    def test_rate_enforced(self, sim):
        got_bytes = [0]
        link = Link(sim, LinkConfig(rate_bps=10e6, delay_s=0.0),
                    sink=lambda p: got_bytes.__setitem__(0, got_bytes[0] + p.size))
        for i in range(1000):
            link.send(make_data_packet(i * 1500, i + 1))
        sim.run(until=0.5)
        assert got_bytes[0] * 8 <= 10e6 * 0.5 * 1.01

    def test_queue_overflow_drops(self, sim):
        link = Link(sim, LinkConfig(rate_bps=1e6, delay_s=0.0, queue_bytes=5000))
        link.connect(lambda p: None)
        for i in range(10):
            link.send(make_data_packet(i * 1500, i + 1))
        assert link.packets_lost > 0

    def test_ingress_loss_model(self, sim):
        link = Link(
            sim,
            LinkConfig(rate_bps=1e9, delay_s=0.0, loss=PatternLoss([1])),
        )
        got = []
        link.connect(got.append)
        for i in range(3):
            link.send(make_data_packet(i * 1500, i + 1))
        sim.run()
        assert len(got) == 2
        assert (link.packets_lost, link.packets_sent) == (1, 3)

    def test_corruption_drops_on_a_long_delay_link(self, sim):
        """A corrupted packet is lost whatever the propagation delay
        (a negative-delay sentinel once delivered it one second early
        on a link of 1 s or more)."""
        link = Link(sim, LinkConfig(rate_bps=1e9, delay_s=1.5))
        got = []
        link.connect(got.append)
        link.impairments(1).corrupt_prob = 1.0
        for i in range(3):
            link.send(make_data_packet(i * 1500, i + 1))
        sim.run()
        assert got == [] and link.packets_corrupted == link.packets_lost == 3

    def test_waiting_packets_keep_the_draws_made_at_acceptance(self, sim):
        """An impairment turned on or cleared while packets wait changes
        only the packets the link accepts after it: the waiting ones
        keep the corrupt and jitter draws they got when accepted."""
        got = []
        link = Link(sim, LinkConfig(rate_bps=12e6, delay_s=1e-3),
                    sink=lambda p: got.append((sim.now(), p.pkt_seq)))
        imp = link.impairments(1)
        wire_s = 1518 * 8 / 12e6

        def send(first, last):
            for i in range(first, last + 1):
                assert link.send(make_data_packet(i * 1500, i))

        send(1, 3)                      # timed clean
        imp.corrupt_prob = 1.0
        send(4, 5)                      # corrupted, behind 1-3
        imp.clear()
        imp.jitter_s = 5e-3
        send(6, 7)                      # jittered, behind 4-5
        assert link.queue.settle(sim.now()) == 6 * 1518
        imp.clear()
        send(8, 8)                      # clean again, behind 6-7
        imp.corrupt_prob = 1.0
        sim.run()
        assert link.packets_corrupted == 2
        assert sorted(seq for _, seq in got) == [1, 2, 3, 6, 7, 8]
        clean = {seq: t for t, seq in got if seq in (1, 2, 3, 8)}
        assert clean == {seq: pytest.approx(seq * wire_s + 1e-3)
                         for seq in (1, 2, 3, 8)}
        assert all(t > seq * wire_s + 1e-3 for t, seq in got if seq in (6, 7))

    def test_lossless_link_holds_no_loss_model(self, sim):
        config = LinkConfig(rate_bps=1e6)
        assert config.loss is None
        link = Link(sim, config)
        model = PatternLoss([0])
        assert link.set_loss(model) is None
        assert link.set_loss(None) is model and config.loss is None

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LinkConfig(rate_bps=0)
        with pytest.raises(ValueError):
            LinkConfig(rate_bps=1e6, delay_s=-1)


class TestLinkCost:
    """Python calls into ``repro`` per packet of a ``Link`` driven
    directly (``callcount``, CPython 3.11): 5.005
    idle and backlogged -- ``send``, the queue's ``settle``, the link's
    ``_schedule`` and its ``call_at`` for the arrival, the delivery,
    and ``run`` once.  5.01 before a packet was one event (a
    serialization finish and a ``call_at`` for it where ``settle`` and
    ``_schedule`` are now), 7.01 before
    the heap entry was the event's handle (an ``Event.__init__`` per
    ``call_at``), and 21.01 idle and 18.02 backlogged before each leg
    was one pass: a loss model on every lossless link and two clock
    reads, the queue's enqueue and dequeue, the serialization formula,
    a second start call per finish, a closure per arrival and
    ``advance_to`` per event."""

    PACKETS = 200

    @pytest.fixture
    def sim(self):
        return Simulator(seed=1, simsan=False)    # no sanitizer hooks

    def calls_per_packet(self, sim, drive):
        return per_packet(calls_by_package(drive), self.PACKETS)["total"]

    def test_idle_link(self, sim):
        got = []
        link = Link(sim, LinkConfig(rate_bps=100e6, delay_s=1e-4),
                    sink=got.append)
        for i in range(self.PACKETS):     # each finds the wire idle
            packet = make_data_packet(i * 1500, i + 1)
            sim.call_at(i * 1e-3, lambda p=packet: link.send(p))
        assert self.calls_per_packet(sim, sim.run) <= 5.05
        assert len(got) == link.queue.enqueued == self.PACKETS
        assert link.queue.peak_bytes == 1518

    def test_backlogged_link(self, sim):
        got = []
        link = Link(sim, LinkConfig(rate_bps=100e6, delay_s=1e-4),
                    sink=got.append)
        packets = [make_data_packet(i * 1500, i + 1)
                   for i in range(self.PACKETS)]

        def burst():
            for packet in packets:
                link.send(packet)
            sim.run()

        assert self.calls_per_packet(sim, burst) <= 5.05
        assert len(got) == self.PACKETS
        assert link.queue.peak_bytes == (self.PACKETS - 1) * 1518

    def test_one_event_per_accepted_packet(self, sim):
        """The arrival is the packet's only event: no serialization
        finish, idle or backlogged, and none for a packet dropped at
        ingress."""
        got = []
        link = Link(sim, LinkConfig(rate_bps=100e6, delay_s=1e-4,
                                    queue_bytes=20 * 1518,
                                    loss=PatternLoss([3, 50])),
                    sink=got.append)
        for i in range(self.PACKETS):
            link.send(make_data_packet(i * 1500, i + 1))
        assert sim.pending() == link.queue.enqueued
        sim.run()
        accepted = link.queue.enqueued
        assert link.packets_lost == 2 + link.queue.drops > 100
        assert sim.events_fired == accepted == len(got)
        link.send(make_data_packet(0, 1))       # the wire is idle again
        sim.run()
        assert sim.events_fired == accepted + 1 == link.queue.enqueued


class TestPipe:
    def test_fixed_delay(self, sim):
        got = []
        pipe = Pipe(sim, delay_s=0.123, sink=lambda p: got.append(sim.now()))
        pipe.send(make_ack_packet())
        sim.run()
        assert got == [pytest.approx(0.123)]

    def test_loss_model_applies(self, sim):
        pipe = Pipe(sim, delay_s=0.0, loss=PatternLoss([0]))
        got = []
        pipe.connect(got.append)
        pipe.send(make_ack_packet())
        pipe.send(make_ack_packet())
        sim.run()
        assert len(got) == 1
        assert pipe.packets_lost == 1

    def test_delay_is_fixed_at_construction(self, sim):
        """Delivery pairs events with packets by position, which only
        holds while every packet waits the same time."""
        pipe = Pipe(sim, delay_s=0.01)
        assert pipe.delay_s == pytest.approx(0.01)
        with pytest.raises(AttributeError):
            pipe.delay_s = 0.5
        with pytest.raises(ValueError):
            Pipe(sim, delay_s=float("nan"))

    def test_fifo_delivery_with_loss_model_and_counters(self, sim):
        class EveryThird:
            def __init__(self):
                self.asked = []

            def should_drop(self, packet, now):
                self.asked.append((packet.uid, now))
                return len(self.asked) % 3 == 0

        loss = EveryThird()
        pipe = Pipe(sim, delay_s=0.01, loss=loss)
        got = []
        pipe.connect(lambda p: got.append((p.uid, sim.now())))
        sent = [make_ack_packet() for _ in range(9)]
        verdicts = []
        for k, packet in enumerate(sent):
            sim.run(until=0.001 * k)
            verdicts.append(pipe.send(packet))
        assert verdicts == [True, True, False] * 3
        sim.run()
        # The model saw every packet, at its send time; survivors come
        # out in order, each exactly one delay later, one hop older.
        assert loss.asked == [(p.uid, pytest.approx(0.001 * k))
                              for k, p in enumerate(sent)]
        assert got == [(p.uid, pytest.approx(0.001 * k + 0.01))
                       for k, p in enumerate(sent) if k % 3 != 2]
        assert (pipe.packets_sent, pipe.packets_lost,
                pipe.packets_delivered) == (9, 3, 6)
        assert [p.hops for p in sent] == [1, 1, 0] * 3

    def test_no_sink_is_tolerated(self, sim):
        pipe = Pipe(sim, delay_s=0.01)
        packet = make_ack_packet()
        assert pipe.send(packet) is True
        sim.run()
        assert pipe.packets_delivered == 1 and packet.hops == 1
        assert sim.pending() == 0


class TestEmulatedPath:
    def test_rtt_split_between_directions(self, sim):
        path = EmulatedPath(sim, PathConfig(rate_bps=1e9, rtt_s=0.2))
        fwd_t, rev_t = [], []
        path.connect(lambda p: fwd_t.append(sim.now()),
                     lambda p: rev_t.append(sim.now()))
        path.forward.send(make_data_packet(0, 1))
        path.reverse.send(make_ack_packet())
        sim.run()
        assert fwd_t[0] == pytest.approx(0.1, abs=1e-3)
        assert rev_t[0] == pytest.approx(0.1, abs=1e-3)

    def test_asymmetric_loss(self, sim):
        path = EmulatedPath(
            sim, PathConfig(rate_bps=1e9, rtt_s=0.01, data_loss=1.0, ack_loss=0.0)
        )
        fwd, rev = [], []
        path.connect(fwd.append, rev.append)
        path.forward.send(make_data_packet(0, 1))
        path.reverse.send(make_ack_packet())
        sim.run()
        assert fwd == []
        assert len(rev) == 1

    def test_zero_loss_rates_hold_no_model_and_keep_the_rng_stream(self):
        draws = []
        for rate in (0.0, 0.1):
            sim = Simulator(seed=3)
            path = EmulatedPath(sim, PathConfig(rate_bps=1e9, rtt_s=0.01,
                                                data_loss=rate, ack_loss=rate))
            losses = (path.forward.config.loss, path.reverse.config.loss)
            assert all((model is None) == (rate == 0.0) for model in losses)
            draws.append(sim.rng.random())
        assert draws[0] == draws[1]

    def test_bdp_helper(self):
        cfg = PathConfig(rate_bps=100e6, rtt_s=0.2)
        assert cfg.bdp_bytes() == int(100e6 * 0.2 / 8)

    def test_loss_model_override(self, sim):
        path = EmulatedPath(
            sim,
            PathConfig(rate_bps=1e9, rtt_s=0.01),
            forward_loss=BernoulliLoss(1.0, 1),
        )
        fwd = []
        path.connect(fwd.append, lambda p: None)
        path.forward.send(make_data_packet(0, 1))
        sim.run()
        assert fwd == []
